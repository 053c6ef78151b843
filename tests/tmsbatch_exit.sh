#!/usr/bin/env bash
# Regression test for the tmsbatch exit-code contract (docs/DRIVER.md):
#   0  every job compiled, validated, and (if requested) passed the oracle
#   1  any job failed, or an input could not be loaded
#   2  usage errors (bad flags, machine flags out of range, malformed
#      numeric values, unknown scheduler names)
# plus tmsc's matching exit 2 on a malformed numeric value, and the same
# for the bench binaries' --iterations and --jobs (BENCH is one that
# reads both, e.g. bench_figure4_speedups; a bad value exits before any
# work starts).
#
# Usage: tmsbatch_exit.sh TMSBATCH LOOPS_DIR TMSC BENCH
set -u

if [ "$#" -ne 4 ]; then
  echo "usage: $0 TMSBATCH LOOPS_DIR TMSC BENCH" >&2
  exit 2
fi
TMSBATCH=$1 LOOPS_DIR=$2 TMSC=$3 BENCH=$4

WORK=$(mktemp -d tmsbatch_exit.XXXXXX) || exit 1
trap 'rm -rf "$WORK"' EXIT

fail=0
expect() {  # expect WANT DESCRIPTION COMMAND...
  local want=$1 what=$2
  shift 2
  "$@" >"$WORK/out.txt" 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "tmsbatch_exit: FAIL: $what: exit $got (want $want)" >&2
    cat "$WORK/out.txt" >&2
    fail=1
  else
    echo "tmsbatch_exit: ok: $what (exit $got)"
  fi
}

# exit 0: a clean batch over real inputs, all schedulers.
expect 0 "all jobs ok" \
  "$TMSBATCH" "$LOOPS_DIR/dotprod.loop" --schedulers sms,ims,tms --quiet

# exit 1: an input that cannot be loaded fails the run.
printf 'loop broken\ninstr a iadd\nreg a a 0\n' >"$WORK/broken.loop"
expect 1 "malformed loop file" "$TMSBATCH" "$WORK/broken.loop" --quiet

# exit 1: a dependence distance past the bound (65,536) is a load error
# naming its line, in tmsbatch and tmsc alike (it used to overflow
# II * distance in the scheduler and abort).
printf 'loop huge\ninstr a iadd\ninstr s iadd\nreg a s 0\nreg s s 2147483647\n' >"$WORK/huge.loop"
expect 1 "distance above the bound" "$TMSBATCH" "$WORK/huge.loop" --quiet
expect 1 "tmsc distance above the bound" "$TMSC" "$WORK/huge.loop"
if ! grep -q "huge.loop:5: distance 2147483647 exceeds the bound 65536" "$WORK/out.txt"; then
  echo "tmsbatch_exit: FAIL: tmsc did not name the line of the distance" >&2
  cat "$WORK/out.txt" >&2
  fail=1
fi

# exit 1: a missing input file.
expect 1 "missing loop file" "$TMSBATCH" "$WORK/does_not_exist.loop" --quiet

# exit 2: usage errors never masquerade as job failures.
expect 2 "unknown scheduler" \
  "$TMSBATCH" "$LOOPS_DIR/dotprod.loop" --schedulers bogus --quiet
expect 2 "unknown flag" "$TMSBATCH" "$LOOPS_DIR/dotprod.loop" --wibble

# exit 2: a malformed or out-of-range machine flag is a usage error, caught
# before any job runs (it used to abort inside the scheduler).
for flag in "--ncore 0" "--ncore 1025" "--ncore abc" "--policy ring" "--policy-stride 0" \
            "--policy-block 0" "--bus-bytes -1" "--bus-bandwidth 0"; do
  # shellcheck disable=SC2086  # "$flag" is a flag and its value
  expect 2 "bad machine flag $flag" "$TMSBATCH" "$LOOPS_DIR/dotprod.loop" $flag --quiet
done

# exit 2: a numeric flag must be an integer as a whole (atoi used to
# read "abc" as 0 and simulate nothing).
expect 2 "malformed --simulate" "$TMSBATCH" "$LOOPS_DIR/dotprod.loop" --simulate abc --quiet
expect 2 "malformed --oracle" "$TMSBATCH" "$LOOPS_DIR/dotprod.loop" --oracle 1x --quiet
expect 2 "tmsc malformed --simulate" "$TMSC" "$LOOPS_DIR/dotprod.loop" --simulate abc

# exit 2: the bench binaries parse --iterations (>= 1) and --jobs (>= 0)
# strictly too (atoll used to turn "abc" into 0, which aborted inside the
# simulator, and atoi read "4x" as 4).
expect 2 "bench malformed --iterations" "$BENCH" --iterations abc
expect 2 "bench --iterations below 1" "$BENCH" --iterations -5
expect 2 "bench malformed --jobs" "$BENCH" --jobs 4x
expect 2 "bench --jobs below 0" "$BENCH" --jobs -1

exit "$fail"
