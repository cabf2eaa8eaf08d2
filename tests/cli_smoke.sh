#!/usr/bin/env bash
# Runs the runtime validation suite and the geometry and tracking
# commands of the CLI under -W error::RuntimeWarning, with their exit
# codes and refusal messages checked, and writes their CSV files into
# the directory given as the first argument.  Run from the repository
# root:
#
#     bash tests/cli_smoke.sh OUT_DIR
set -eo pipefail

out=${1:?usage: tests/cli_smoke.sh OUT_DIR}
mkdir -p "$out"
# the geometry benchmark's weights, alpha = 0, 0.05, ..., 1
bench_alphas="0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95,1"
cli() { PYTHONPATH=src python -W error::RuntimeWarning -m uav_isac.cli "$@"; }

# the runtime validation suite exits 1 on any failing check
cli validate

# geometry commands at their defaults
cli sweep-angle --out "$out/sweep_angle.csv"
# the benchmark's 21 weights at 1 m: one-round and two-round Newton polishes
cli sweep-angle --alphas "$bench_alphas" --h-step 1 --out "$out/sweep_bench.csv"
cli tradeoff --out "$out/tradeoff.csv"
cli solve-sp1
# a package refusal exits 4 with one stderr line, not a traceback; a
# geometry solution that is not finite is refused the same way
for args in "--H 1e200" "--H 1e60" "--H 1e308 --set alpha=1"; do
  code=0
  cli solve-sp1 $args 2> "$out/refusal.txt" || code=$?
  cat "$out/refusal.txt"
  test "$code" -eq 4
  test "$(wc -l < "$out/refusal.txt")" -eq 1
  if grep -q Traceback "$out/refusal.txt"; then exit 1; fi
done
# the sweep records a refused cell as an error and goes on
cli sweep-angle --alphas 0.5,1 --h-min 1e60 --h-max 1e60 --h-step 1 --out "$out/sweep_far.csv"
grep ',error:' "$out/sweep_far.csv"

# tracking commands at their defaults
cli track --scheme proposed --out "$out/track_proposed.csv"
cli track --scheme right-above --out "$out/track_right_above.csv"
# gamma_c = 12 gives the proposed scheme 5 flagged fallback slots at
# seed 0; v_a_max = 0 holds the platform still
printf 'gamma_c = 12\n' > "$out/gamma_c_12.cfg"
printf 'v_a_max = 0\n' > "$out/v_a_max_0.cfg"
for cfg in gamma_c_12 v_a_max_0; do
  for scheme in proposed right-above; do
    cli track "$out/$cfg.cfg" --scheme $scheme --out "$out/track_${cfg}_$scheme.csv"
  done
done
# a power whose watts overflow is a config error: exit 2, one stderr line
printf 'sigma_c2_dbm = 4000\n' > "$out/sigma_c2_dbm_4000.cfg"
code=0
cli track "$out/sigma_c2_dbm_4000.cfg" --out "$out/refused.csv" 2> "$out/refusal.txt" || code=$?
cat "$out/refusal.txt"
test "$code" -eq 2
test "$(wc -l < "$out/refusal.txt")" -eq 1
if grep -q Traceback "$out/refusal.txt"; then exit 1; fi
