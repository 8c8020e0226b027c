#!/bin/sh
# store_check.sh PARENT_CLI CHANGE_CLI
#
# Result-store compatibility between two builds of the CLI (DESIGN
# §14).  The parent's daemon (--jobs 1) answers a fixed request list
# into a fresh store; then the change's daemon, on the same store,
# answers the same list.  Each of the change's answers must be a store
# hit (its `client metrics` reads "serve.cache_misses":0) and
# byte-identical to the parent's.  A changed request key, config
# fingerprint, digest or entry format shows up as misses; a changed
# JSON codec as differing bodies.
#
# The list: optimize and codesign under the energy, delay and edp
# objectives on two layers at --max-choices 4, plus one request at
# --node 16 and one with --area (14 requests).  Prints how many
# answers differ and how many missed, and exits 1 if either is not 0.
# About 15 s on a 2-vCPU host; not part of `dune runtest`.  E.g.
#   tools/store_check.sh ../parent/_build/default/bin/thistle_cli.exe \
#                        _build/default/bin/thistle_cli.exe
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_CLI CHANGE_CLI" >&2
    exit 2
fi

dir=$(mktemp -d "${TMPDIR:-/tmp}/thistle_store.XXXXXX")
daemon_pid=
cleanup() {
    [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

sock=$dir/sock
store=$dir/store

# One request per line: the client subcommand and its options.
for layer in resnet-2 yolo-7; do
    for cmd in optimize codesign; do
        for obj in energy delay edp; do
            echo "$cmd --layer $layer --objective $obj --max-choices 4"
        done
    done
done >"$dir/requests"
echo "optimize --layer resnet-2 --objective delay --max-choices 4 --node 16" >>"$dir/requests"
echo "codesign --layer yolo-7 --objective energy --max-choices 4 --area 1500000" >>"$dir/requests"

start_daemon() {
    rm -f "$sock"
    # Launched via command substitution so the daemon is not a job of
    # this shell: no "Killed" job-control notice when it is stopped.
    daemon_pid=$(
        "$1" serve --socket "$sock" --store "$store" --jobs 1 \
            >"$dir/daemon.log" 2>&1 &
        echo $!
    )
    i=0
    while [ ! -S "$sock" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "store check: daemon did not come up" >&2
            cat "$dir/daemon.log" >&2
            exit 1
        fi
        sleep 0.1
    done
}

stop_daemon() {
    kill -9 "$daemon_pid"
    while kill -0 "$daemon_pid" 2>/dev/null; do sleep 0.1; done
    daemon_pid=
}

# answer_all CLI OUTDIR: one body per request; a failing request
# appends its exit status, so a failure differs too.
answer_all() {
    mkdir -p "$2"
    n=0
    while read -r request; do
        n=$((n + 1))
        status=0
        # shellcheck disable=SC2086 # the request line is split on purpose
        "$1" client $request --socket "$sock" >"$2/$n" 2>/dev/null </dev/null || status=$?
        [ "$status" -eq 0 ] || echo "exit status $status" >>"$2/$n"
    done <"$dir/requests"
}

start_daemon "$1"
answer_all "$1" "$dir/parent"
stop_daemon

start_daemon "$2"
answer_all "$2" "$dir/change"
"$2" client metrics --socket "$sock" >"$dir/metrics.json"
stop_daemon

total=$(wc -l <"$dir/requests")
differ=0
n=0
while [ "$n" -lt "$total" ]; do
    n=$((n + 1))
    if ! cmp -s "$dir/parent/$n" "$dir/change/$n"; then
        differ=$((differ + 1))
        echo "differs: $(sed -n "${n}p" "$dir/requests")"
    fi
done
misses=$(sed -n 's/.*"serve\.cache_misses":\([0-9]*\).*/\1/p' "$dir/metrics.json")
hits=$(sed -n 's/.*"serve\.cache_hits":\([0-9]*\).*/\1/p' "$dir/metrics.json")
echo "$total requests: $differ bodies differ byte for byte, ${hits:-0} store hits, ${misses:-?} misses"
[ "$differ" -eq 0 ] && [ "${misses:-1}" = 0 ]
