#!/usr/bin/env bash
# The CI checks, one function a step, run in order from the repository root.
# Each step runs under `set -e` in its own subshell; the script prints every
# step's name, result and wall time, and exits nonzero if any step failed.
#
#   tools/ci.sh                                  # after `pip install ".[test]"`
#   HODGEORBIT="python -m hodgeorbit" PYTHONPATH=src tools/ci.sh   # uninstalled
#
# Scratch files go to $RUNNER_TEMP, or, when it is unset, to a fresh
# `mktemp -d` directory that is removed on exit.

cd "$(dirname "$0")/.." || exit 1
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d) || exit 1
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
export RUNNER_TEMP

console_script_end_to_end() {
  ${HODGEORBIT:-hodgeorbit} tables --all --out "$RUNNER_TEMP/tables"
  for f in golden/*.tsv; do cmp "$f" "$RUNNER_TEMP/tables/$(basename "$f")"; done
  test "$(timeout 10 ${HODGEORBIT:-hodgeorbit} roots --type A1000 --count-only)" = 500500
}

hash_seed_independence() {
  # set and dict order of hashed values must never reach the output
  for seed in 1 2 3 4; do
    out="$RUNNER_TEMP/tables-seed$seed"
    PYTHONHASHSEED=$seed ${HODGEORBIT:-hodgeorbit} tables --all --out "$out"
    for f in golden/*.tsv; do cmp "$f" "$out/$(basename "$f")"; done
    PYTHONHASHSEED=$seed ${HODGEORBIT:-hodgeorbit} orbit --type E8 --node 8 --chain auto --format json > "$RUNNER_TEMP/e8-census-seed$seed.json"
    cmp "$RUNNER_TEMP/e8-census-seed1.json" "$RUNNER_TEMP/e8-census-seed$seed.json"
    for fmt in json tsv; do
      PYTHONHASHSEED=$seed ${HODGEORBIT:-hodgeorbit} roots --type D64 --format $fmt > "$RUNNER_TEMP/d64-roots-seed$seed.$fmt"
      cmp "$RUNNER_TEMP/d64-roots-seed1.$fmt" "$RUNNER_TEMP/d64-roots-seed$seed.$fmt"
    done
  done
}

bad_input_exit_codes() {
  over=$(python -c "from hodgeorbit.cli import MAX_BUILD_RANK; print(MAX_BUILD_RANK + 1)")
  status=0
  # one pair a line: the expected exit code, then the argv
  while read -r want argv; do
    code=0
    timeout 10 ${HODGEORBIT:-hodgeorbit} $argv < /dev/null > /dev/null 2> "$RUNNER_TEMP/cli.err" || code=$?
    cat "$RUNNER_TEMP/cli.err"
    if [ "$code" -ne "$want" ] || grep -q Traceback "$RUNNER_TEMP/cli.err"; then
      echo "FAIL: hodgeorbit $argv exited $code, expected $want"
      status=1
    fi
  done <<PAIRS
2 roots --type A --rank $over
2 orbit --type D64 --node 2
2 --seed 1 roots --type A1
2 orbit --type B3 --node 2 --sos 1,a
3 orbit --type B3 --node 1 --chain auto
0 orbit --type B3 --node 1 --sos 1,0,0
0 orbit --type D64 --node 2 --chain auto
3 orbit --type B3 --node 2 --sos 0,1,0|0,-1,0
3 orbit --type B3 --node 2 --sos 0,1,0|1,1,0|0,1,1|1,1,1
4 tables --id table1 --out /dev/null/x
2 tables --all --id table1 --out /tmp/x
PAIRS
  exit "$status"
}

long_sos_refused() {
  sos=$(python -c 'r = ["0,1,0", "1,1,0", "0,1,1", "1,1,1", "0,1,2", "1,1,2"]; print("|".join(r[k % 6] for k in range(2000)))')
  code=0
  timeout 10 ${HODGEORBIT:-hodgeorbit} orbit --type B3 --node 2 --sos "$sos" > /dev/null 2> "$RUNNER_TEMP/sos.err" || code=$?
  cat "$RUNNER_TEMP/sos.err"
  test "$code" -eq 3
  test "$(wc -l < "$RUNNER_TEMP/sos.err")" -eq 1
  if grep -q Traceback "$RUNNER_TEMP/sos.err"; then exit 1; fi
}

dimension_cap() {
  out="$RUNNER_TEMP/capped"
  mkdir -p "$out"
  cp golden/intro_hodge_numbers.tsv "$out/"
  code=0
  HODGEORBIT_DIM_CAP=abc ${HODGEORBIT:-hodgeorbit} tables --all --out "$out" 2> "$RUNNER_TEMP/cap.err" || code=$?
  cat "$RUNNER_TEMP/cap.err"
  test "$code" -eq 2
  if grep -q Traceback "$RUNNER_TEMP/cap.err"; then exit 1; fi
  code=0
  HODGEORBIT_DIM_CAP=10 ${HODGEORBIT:-hodgeorbit} tables --id intro_hodge_numbers --out "$out" 2> "$RUNNER_TEMP/cap.err" || code=$?
  cat "$RUNNER_TEMP/cap.err"
  test "$code" -eq 3
  if grep -q Traceback "$RUNNER_TEMP/cap.err"; then exit 1; fi
  cmp golden/intro_hodge_numbers.tsv "$out/intro_hodge_numbers.tsv"
}

peak_rss_kb() {
  # peak resident size in kB of one hodgeorbit run with the given arguments,
  # its own child, so no earlier run counts toward it
  python -c 'import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' ${HODGEORBIT:-hodgeorbit} "$@"
}

json_listing_memory() {
  # the JSON listing is written row by row, so it may peak at most 3 MB above
  # the TSV listing of the same roots (5.9 MB above as one json.dumps tree)
  json=$(peak_rss_kb roots --type D64 --format json)
  tsv=$(peak_rss_kb roots --type D64 --format tsv)
  echo "D64 listing peak RSS: $json kB as JSON, $tsv kB as TSV"
  test $((json - tsv)) -le 3072
}

tier1_tests() {
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors --durations=15
}

benchmark_selftest() {
  python3 perfbench/selftest.py
}

census_reference_digests() {
  # shuffled orbit/roots CLI queries on classical ranks against
  # perfbench/reference/classical_census.json; exits nonzero on a mismatch
  python3 perfbench/run.py --workload classical_census --seed 1 --seconds 5
}

paper_tables_span_coverage() {
  # a traced run fails if a TRACED name is gone or a COVERAGE span never
  # fires; the smoke runs of the self-test skip that check
  python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 5 --trace 1
}

chevalley_digests_and_span_coverage() {
  # structure constants, rational forms and standard triples against
  # perfbench/reference/chevalley_forms.json, checked by every worker,
  # untraced and traced alike; exits nonzero on a mismatch.  Then the
  # span coverage check on the structure constants, rational forms,
  # Cayley triples and Jacobi triples, which the paper tables never reach
  python3 perfbench/run.py --workload chevalley_forms --seed 1 --seconds 5 --trace 1
}

failed=()
step() {
  local name=$1 fn=$2 start status ms result=ok
  echo "== $name"
  start=$(date +%s%N)
  # not in a condition, so that `set -e` holds inside the step
  (set -e; "$fn")
  status=$?
  ms=$(( ($(date +%s%N) - start) / 1000000 ))
  if [ "$status" -ne 0 ]; then
    result="FAILED (exit $status)"
    failed+=("$name")
  fi
  printf '== %s: %s in %d.%03d s\n' "$name" "$result" $((ms / 1000)) $((ms % 1000))
}

step "Console script end to end" console_script_end_to_end
step "Tables, the E8 census and the D64 listing do not depend on the hash seed" hash_seed_independence
step "Bad input exits with its code and without a traceback" bad_input_exit_codes
step "A long --sos is refused at once by the rank bound" long_sos_refused
step "Dimension cap on tables, existing files left alone" dimension_cap
step "The D64 JSON listing peaks within 3 MB of the TSV one" json_listing_memory
step "Tier-1 tests" tier1_tests
step "Benchmark self-test" benchmark_selftest
step "Census reference digests" census_reference_digests
step "Span coverage on the paper tables" paper_tables_span_coverage
step "Chevalley reference digests and span coverage" chevalley_digests_and_span_coverage

if [ "${#failed[@]}" -ne 0 ]; then
  printf 'failed step: %s\n' "${failed[@]}"
  exit 1
fi
echo "all steps passed"
