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
# refused CODE ARGS...: the command exits with CODE, prints one stderr line
# and no traceback, and writes no refused.csv
refused() {
  local want=$1 code=0
  shift
  cli "$@" 2> "$out/refusal.txt" || code=$?
  cat "$out/refusal.txt"
  test "$code" -eq "$want"
  test "$(wc -l < "$out/refusal.txt")" -eq 1
  test ! -e "$out/refused.csv"
  if grep -q Traceback "$out/refusal.txt"; then exit 1; fi
}

# the runtime validation suite exits 1 on any failing check
cli validate
# and checks the parameter set it is given
cli validate --set h_alt=80 | tail -n 1 | grep -x '21/21 checks passed'

# geometry commands at their defaults
cli sweep-angle --out "$out/sweep_angle.csv"
# the benchmark's 21 weights at 1 m: one-round and two-round Newton polishes
cli sweep-angle --alphas "$bench_alphas" --h-step 1 --out "$out/sweep_bench.csv"
cli tradeoff --out "$out/tradeoff.csv"
cli solve-sp1
# a package refusal exits 4 with one stderr line, not a traceback; a
# geometry solution that is not finite is refused the same way
for args in "--H 1e200" "--H 1e60" "--H 1e308 --set alpha=1"; do
  refused 4 solve-sp1 $args
done
# a geometry bracket rounded to one point, where the angle channel carries
# almost no information, is its own solution x_u = H/sqrt(2)
cli solve-sp1 --set a1=1e20 | grep -x 'x_star_m = 35.35533905932737'
cli validate --set a1=1e20 | tail -n 1 | grep -x '21/21 checks passed'
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
# --set reads the same FIELD = VALUE as a config file line
cli track --set gamma_c=12 --out "$out/track_set_gamma_c_12.csv"
cmp "$out/track_set_gamma_c_12.csv" "$out/track_gamma_c_12_proposed.csv"
rm "$out/track_set_gamma_c_12.csv" "$out/track_set_gamma_c_12.csv.manifest.json"
# a power whose watts overflow is a config error: exit 2, one stderr line
printf 'sigma_c2_dbm = 4000\n' > "$out/sigma_c2_dbm_4000.cfg"
refused 2 track "$out/sigma_c2_dbm_4000.cfg" --out "$out/refused.csv"
# a rate target that no offset meets at 200 m and 20 dBm: exit 3, one stderr line
refused 3 track --set h_alt=200 --set p_a_dbm=20 --out "$out/refused.csv"
