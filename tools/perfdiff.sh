#!/bin/sh
# perfdiff.sh BASELINE.json CURRENT.json [tolerance-percent]
#
# Compares two flat BENCH_*.json files (one-level objects of
# "key": number pairs, as emitted by bench/solver.exe) and fails with
# exit 1 if any tracked metric regressed by more than the tolerance
# (default 10%).  Direction is inferred from the key name:
#   *wall_s             lower is better
#   *wall_mean_s        lower is better (mean-of-repeats companion)
#   *solves_per_s       higher is better
#   *speedup            higher is better
#   *_pruned            higher is better (presolve coverage)
# All other keys are informational and only reported when they change.
# The comm_* keys from the communication-limited scenario follow the
# same suffix rules (comm_aware_wall_s is lower-better, &c.);
# comm_lowering_overhead is a cost ratio, deliberately informational —
# a richer lowering is allowed to cost solver time.
#
# A *speedup key whose current value hovers around 1.0 (within 5%) gets
# a "~1.0 WARN" marker: the feature it measures is enabled but buying
# nothing, which deserves a look even though it is not a regression.
# The warning never affects the exit status.
#
# A directional key present in the baseline but absent from the current
# file is itself a failure (exit 1): a bench that silently stops
# emitting a tracked metric must not read as a pass.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 BASELINE.json CURRENT.json [tolerance-percent]" >&2
    exit 2
fi

baseline=$1
current=$2
tolerance=${3:-10}

for f in "$baseline" "$current"; do
    [ -r "$f" ] || { echo "perfdiff: cannot read $f" >&2; exit 2; }
done

# Flatten  "key": 12.5  pairs to  key 12.5  lines (numbers only; quoted
# string values like "layers" drop out here).
pairs() {
    tr ',{}' '\n\n\n' < "$1" |
        sed -n 's/^[[:space:]]*"\([^"]*\)"[[:space:]]*:[[:space:]]*\(-\{0,1\}[0-9][0-9.eE+-]*\)[[:space:]]*$/\1 \2/p'
}

pairs "$baseline" > "${TMPDIR:-/tmp}/perfdiff_base.$$"
pairs "$current" > "${TMPDIR:-/tmp}/perfdiff_cur.$$"
trap 'rm -f "${TMPDIR:-/tmp}/perfdiff_base.$$" "${TMPDIR:-/tmp}/perfdiff_cur.$$"' EXIT

status=0
found=0
while read -r key cur; do
    base=$(awk -v k="$key" '$1 == k { print $2; exit }' "${TMPDIR:-/tmp}/perfdiff_base.$$")
    [ -n "$base" ] || continue
    case $key in
        *wall_s | *wall_mean_s) dir=lower ;;
        *solves_per_s | *speedup | *_pruned) dir=higher ;;
        *) dir=info ;;
    esac
    ratio=0
    case $key in *speedup) ratio=1 ;; esac
    line=$(awk -v k="$key" -v b="$base" -v c="$cur" -v d="$dir" -v tol="$tolerance" \
               -v ratio="$ratio" '
        BEGIN {
            delta = (b == 0) ? 0 : 100 * (c - b) / b
            verdict = "ok"
            if (d == "lower" && delta > tol) verdict = "REGRESSION"
            if (d == "higher" && delta < -tol) verdict = "REGRESSION"
            if (d == "info") verdict = (c == b) ? "same" : "changed"
            if (ratio && verdict == "ok" && c >= 0.95 && c <= 1.05)
                verdict = "~1.0 WARN"
            printf "%-25s %14g %14g %+8.1f%%  %s", k, b, c, delta, verdict
        }')
    echo "$line"
    case $line in *REGRESSION) status=1 ;; esac
    case $dir in lower | higher) found=$((found + 1)) ;; esac
done < "${TMPDIR:-/tmp}/perfdiff_cur.$$"

# Baseline-only directional keys: the current run dropped a tracked
# metric, which would otherwise pass vacuously.
missing=0
while read -r key base; do
    case $key in
        *wall_s | *wall_mean_s | *solves_per_s | *speedup | *_pruned) ;;
        *) continue ;;
    esac
    cur=$(awk -v k="$key" '$1 == k { print $2; exit }' "${TMPDIR:-/tmp}/perfdiff_cur.$$")
    [ -n "$cur" ] && continue
    printf '%-25s %14g %14s %9s  MISSING\n' "$key" "$base" "-" "-"
    missing=$((missing + 1))
    status=1
done < "${TMPDIR:-/tmp}/perfdiff_base.$$"

if [ "$found" -eq 0 ] && [ "$missing" -eq 0 ]; then
    echo "perfdiff: no tracked metrics in common between $baseline and $current" >&2
    exit 2
fi
[ "$status" -eq 0 ] && echo "perfdiff: no regression beyond ${tolerance}%"
exit $status
