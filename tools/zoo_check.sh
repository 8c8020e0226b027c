#!/bin/sh
# zoo_check.sh PARENT_CLI CHANGE_CLI
#
# Full-zoo design check between two builds of the CLI: runs `optimize`
# and `codesign` for every layer `thistle layers` lists, under the
# energy, delay and edp objectives, at --jobs 1, with each binary (246
# reports a side on the 41-layer zoo), then compares each pair of
# reports byte for byte.  It prints how many reports differ, and how
# many still differ once their `solver:` line (the step counts) is
# left out.  Exits 1 if any report differs outside its `solver:` line.
#
# The two sides run in parallel, each one run at a time: about 2.5
# minutes on a 2-vCPU host.  Too slow for `dune runtest`; run it by
# hand before and after a solver change, e.g.
#   tools/zoo_check.sh ../parent/_build/default/bin/thistle_cli.exe \
#                      _build/default/bin/thistle_cli.exe
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_CLI CHANGE_CLI" >&2
    exit 2
fi

dir=$(mktemp -d "${TMPDIR:-/tmp}/thistle_zoo.XXXXXX")
trap 'rm -rf "$dir"' EXIT

layers=$("$1" layers | awk 'NR > 1 { print $1 }')

# run_side CLI OUTDIR: one report per (command, layer, objective); a
# failing run appends its exit status, so a failure differs too.
run_side() {
    mkdir -p "$2"
    for layer in $layers; do
        for cmd in optimize codesign; do
            for obj in energy delay edp; do
                out=$2/$cmd.$layer.$obj
                status=0
                "$1" "$cmd" --layer "$layer" --objective "$obj" --jobs 1 \
                    >"$out" 2>/dev/null || status=$?
                [ "$status" -eq 0 ] || echo "exit status $status" >>"$out"
            done
        done
    done
}

run_side "$1" "$dir/parent" &
parent_pid=$!
run_side "$2" "$dir/change"
wait "$parent_pid"

total=0
differ=0
designs=0
for f in "$dir"/parent/*; do
    name=${f##*/}
    total=$((total + 1))
    if ! cmp -s "$f" "$dir/change/$name"; then
        differ=$((differ + 1))
        grep -v '^solver:' "$f" >"$dir/parent.txt" || true
        grep -v '^solver:' "$dir/change/$name" >"$dir/change.txt" || true
        if ! cmp -s "$dir/parent.txt" "$dir/change.txt"; then
            designs=$((designs + 1))
            echo "differs: $name"
        fi
    fi
done
echo "$total reports: $differ differ byte for byte, $designs outside their solver: line"
[ "$designs" -eq 0 ]
