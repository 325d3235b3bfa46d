#!/usr/bin/env bash
# Kill-and-resume smoke test: checkpoint a run, SIGKILL it mid-flight, resume
# from the surviving checkpoint, and verify the resumed run reaches the exact
# same end state as an uninterrupted reference.
#
#   usage: tools/kill_resume_smoke.sh [path-to-scenario-runner] [scenario]
#
# Exercises the whole crash-restart surface end to end, from outside the
# process: atomic checkpoint saves (the SIGKILL may land mid-save), load-time
# validation, and restore parity. Two parity checks run:
#
#   * same-backend (serial-lts -> serial-lts): the final checkpoints must be
#     BYTE-IDENTICAL — restore imports the frozen-force accumulators exactly,
#     so the resumed FP instruction stream matches the uninterrupted one.
#   * cross-backend (threaded/level-aware, 2 ranks -> serial-lts): the final
#     displacement must agree to <= 1e-12 relative L2 (accumulators are
#     recomputed on restore; roundoff only).
set -u

RUNNER="${1:-build/example_scenario_runner}"
SCENARIO="${2:-strip}"
CYCLES=8
KILL_AT=5
CKPT_EVERY=3

WORK="$(mktemp -d "${TMPDIR:-/tmp}/kill_resume_smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
fail() { echo "FAIL: $*" >&2; exit 1; }

[ -x "$RUNNER" ] || fail "runner '$RUNNER' not found (build with -DLTSWAVE_BUILD_EXAMPLES=ON)"

echo "== reference run (uninterrupted, serial-lts) =="
"$RUNNER" "scenario=$SCENARIO" "cycles=$CYCLES" executor=serial-lts \
  "checkpoint=$WORK/ref.ckpt" > "$WORK/ref.log" 2>&1 \
  || fail "reference run failed: $(cat "$WORK/ref.log")"

echo "== crash run (SIGKILL at cycle $KILL_AT, checkpoint every $CKPT_EVERY) =="
"$RUNNER" "scenario=$SCENARIO" "cycles=$CYCLES" executor=serial-lts \
  "checkpoint=$WORK/mid.ckpt" "checkpoint-every=$CKPT_EVERY" \
  "kill-at-cycle=$KILL_AT" > "$WORK/crash.log" 2>&1
status=$?
[ "$status" -eq 137 ] || fail "crash run should die by SIGKILL (exit 137), got $status"
[ -f "$WORK/mid.ckpt" ] || fail "no checkpoint survived the kill"
[ ! -f "$WORK/mid.ckpt.tmp" ] || fail "stale .tmp checkpoint left behind"

echo "== resume (same backend) =="
"$RUNNER" "scenario=$SCENARIO" "cycles=$CYCLES" executor=serial-lts \
  "restore=$WORK/mid.ckpt" "checkpoint=$WORK/resumed.ckpt" > "$WORK/resume.log" 2>&1 \
  || fail "resume failed: $(cat "$WORK/resume.log")"
cmp -s "$WORK/ref.ckpt" "$WORK/resumed.ckpt" \
  || fail "same-backend resume is not bitwise identical to the reference"
echo "   bitwise parity OK"

echo "== crash run on threaded/level-aware (2 ranks) =="
"$RUNNER" "scenario=$SCENARIO" "cycles=$CYCLES" executor=threaded/level-aware ranks=2 \
  "checkpoint=$WORK/tmid.ckpt" "checkpoint-every=$CKPT_EVERY" \
  "kill-at-cycle=$KILL_AT" > "$WORK/tcrash.log" 2>&1
status=$?
[ "$status" -eq 137 ] || fail "threaded crash run should exit 137, got $status"

echo "== resume threaded checkpoint on serial-lts (cross-backend) =="
"$RUNNER" "scenario=$SCENARIO" "cycles=$CYCLES" executor=serial-lts \
  "restore=$WORK/tmid.ckpt" "checkpoint=$WORK/xresumed.ckpt" > "$WORK/xresume.log" 2>&1 \
  || fail "cross-backend resume failed: $(cat "$WORK/xresume.log")"

python3 - "$WORK/ref.ckpt" "$WORK/xresumed.ckpt" <<'EOF' || fail "cross-backend parity > 1e-12"
import struct, sys

def read_u(path):
    # Header: 8B magic, u32 version, 2 arch-tag bytes (byte order, real
    # size), u64 payload size, u64 checksum. Payload starts with two
    # length-prefixed strings (executor, config), then the length-prefixed u
    # array (see src/resilience/checkpoint.cpp).
    with open(path, "rb") as f:
        raw = f.read()
    assert raw[:8] == b"LTSWCKPT", "bad magic in " + path
    pos = 30
    for _ in range(2):  # executor, config strings
        (n,) = struct.unpack_from("<Q", raw, pos)
        pos += 8 + n
    (n,) = struct.unpack_from("<Q", raw, pos)
    pos += 8
    return struct.unpack_from("<%dd" % n, raw, pos)

a, b = read_u(sys.argv[1]), read_u(sys.argv[2])
assert len(a) == len(b), "dof count mismatch"
num = sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5
den = sum(x * x for x in a) ** 0.5
rel = num / den if den else num
print("   cross-backend rel L2 = %.3e" % rel)
sys.exit(0 if rel <= 1e-12 else 1)
EOF

echo "PASS: kill-and-resume smoke (bitwise same-backend, <=1e-12 cross-backend)"
