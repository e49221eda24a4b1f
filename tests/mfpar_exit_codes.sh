#!/bin/sh
# Smoke-tests mfpar's exit-code taxonomy against a real binary:
#   0  success
#   2  bad flag / flag value
#   4  the program faulted at runtime (the serial replay of a rolled-back
#      parallel loop reproduced the fault)
#   5  the --deadline-ms wall-clock deadline fired mid-run
#   6  the --mem-limit-mb array-memory budget was exceeded
#
# Usage: mfpar_exit_codes.sh path/to/mfpar
set -u

MFPAR=${1:?usage: mfpar_exit_codes.sh path/to/mfpar}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

FAILURES=0
check() {
  WANT=$1
  DESC=$2
  shift 2
  "$@" >"$TMP/out" 2>"$TMP/err"
  GOT=$?
  if [ "$GOT" -ne "$WANT" ]; then
    echo "FAIL: $DESC: expected exit $WANT, got $GOT" >&2
    sed 's/^/  stderr: /' "$TMP/err" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: $DESC (exit $GOT)"
  fi
}

# A program whose scatter subscripts x out of bounds at iteration 500.
cat >"$TMP/oob.mf" <<'EOF'
program t
  integer i, n
  integer ind(1000)
  real x(1000)
  n = 1000
  fill: do i = 1, n
    ind(i) = i
    x(i) = 0.0
  end do
  ind(500) = 2000
  oob: do i = 1, n
    x(ind(i)) = x(ind(i)) + 1.0
  end do
end
EOF

cat >"$TMP/good.mf" <<'EOF'
program t
  integer i, n
  real x(100)
  n = 100
  lp: do i = 1, n
    x(i) = i * 2.0
  end do
end
EOF

check 0 "clean analyze+run" "$MFPAR" "$TMP/good.mf" --run=2
# lp is below the parallel profitability threshold, so it runs serially;
# under --engine=vm as bytecode, and the engine line counts it.
check 0 "vm engine run" "$MFPAR" "$TMP/good.mf" --run=2 --engine=vm
grep -q ", 1 serial vm loop run$" "$TMP/out" ||
  { echo "FAIL: engine line lacks the serial vm loop run" >&2; FAILURES=$((FAILURES + 1)); }
check 1 "missing input file" "$MFPAR" "$TMP/does-not-exist.mf"
check 2 "unknown flag" "$MFPAR" --no-such-flag
check 2 "bad --schedule value" "$MFPAR" "$TMP/good.mf" --schedule=gided
check 2 "removed --locality=model value" \
  "$MFPAR" "$TMP/good.mf" --run=2 --locality=model
check 2 "removed --chunk flag" "$MFPAR" "$TMP/good.mf" --run=2 --chunk=4
check 2 "removed --on-fault flag" \
  "$MFPAR" "$TMP/oob.mf" --run=2 --on-fault=report
check 2 "empty --profile= value" "$MFPAR" "$TMP/good.mf" --profile=
check 0 "profiled run writes JSONL" \
  "$MFPAR" "$TMP/good.mf" --profile="$TMP/profile.jsonl" --run=2
[ -s "$TMP/profile.jsonl" ] ||
  { echo "FAIL: --profile wrote no JSONL" >&2; FAILURES=$((FAILURES + 1)); }
check 4 "runtime fault reproduced by the serial replay" \
  "$MFPAR" "$TMP/oob.mf" --run=2
grep -q "runtime fault" "$TMP/err" ||
  { echo "FAIL: fault report missing from stderr" >&2; FAILURES=$((FAILURES + 1)); }

# A loop big enough (8M iterations) that a 1 ms deadline always fires
# mid-run, while 60 s never does; its array (64 MB) also overflows a 1 MB
# budget at allocation time, before a single iteration runs.
cat >"$TMP/big.mf" <<'EOF'
program t
  integer i
  real x(8000000)
  lp: do i = 1, 8000000
    x(i) = i * 1.0
  end do
end
EOF

check 2 "bad --deadline-ms value" "$MFPAR" "$TMP/big.mf" --deadline-ms=soon
check 2 "negative --deadline-ms" "$MFPAR" "$TMP/big.mf" --deadline-ms=-5
check 2 "bad --mem-limit-mb value" "$MFPAR" "$TMP/big.mf" --mem-limit-mb=big
check 2 "zero --mem-limit-mb" "$MFPAR" "$TMP/big.mf" --mem-limit-mb=0
check 0 "generous deadline" "$MFPAR" "$TMP/big.mf" --run=2 --deadline-ms=60000
check 5 "blown deadline" "$MFPAR" "$TMP/big.mf" --run=2 --deadline-ms=1
grep -q "deadline-exceeded" "$TMP/err" ||
  { echo "FAIL: deadline fault missing from stderr" >&2; FAILURES=$((FAILURES + 1)); }
check 0 "generous memory budget" \
  "$MFPAR" "$TMP/big.mf" --run=2 --mem-limit-mb=256
check 6 "blown memory budget" "$MFPAR" "$TMP/big.mf" --run=2 --mem-limit-mb=1
grep -q "resource-exhausted" "$TMP/err" ||
  { echo "FAIL: budget fault missing from stderr" >&2; FAILURES=$((FAILURES + 1)); }

# Both checksum lines of a run skip dead privates, so the serial digest
# must equal the parallel one it is compared against.
"$MFPAR" --run=4 >"$TMP/out" 2>"$TMP/err"
SERIAL=$(sed -n 's/^serial run: .*checksum \([-0-9.]*\).*/\1/p' "$TMP/out")
PARALLEL=$(sed -n 's/^parallel run .*checksum \([-0-9.]*\).*/\1/p' "$TMP/out")
if [ -z "$SERIAL" ] || [ "$SERIAL" != "$PARALLEL" ]; then
  echo "FAIL: serial checksum '$SERIAL' but parallel '$PARALLEL'" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: serial and parallel checksums agree ($SERIAL)"
fi

# --run=N runs on real threads up to the host's cores (what
# std::thread::hardware_concurrency reports) and on simulated processors
# past them; the result line names which one ran.
CORES=$(getconf _NPROCESSORS_ONLN)
"$MFPAR" "$TMP/good.mf" --run="$CORES" >"$TMP/out" 2>"$TMP/err"
grep -q "^parallel run ($CORES real threads," "$TMP/out" ||
  { echo "FAIL: --run=$CORES did not run on real threads" >&2; FAILURES=$((FAILURES + 1)); }
"$MFPAR" "$TMP/good.mf" --run=$((CORES + 1)) >"$TMP/out" 2>"$TMP/err"
grep -q "^parallel run ($((CORES + 1)) simulated processors," "$TMP/out" ||
  { echo "FAIL: --run=$((CORES + 1)) did not simulate" >&2; FAILURES=$((FAILURES + 1)); }

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES exit-code check(s) failed" >&2
  exit 1
fi
echo "all exit-code checks passed"
