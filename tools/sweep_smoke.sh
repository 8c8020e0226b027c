#!/bin/sh
# sweep_smoke.sh THISTLE_CLI
#
# End-to-end smoke of the sharded/resumable sweep CLI (DESIGN §12),
# capped small enough for `dune runtest`.  Shards combine through
# --resume: their journals, concatenated in reverse order into one
# file, resume the unsharded command into its exact report.
#   1. an unsharded run is the reference report of each check;
#   2. --shard 1/2 and --shard 2/2 journals of an energy sweep resume
#      into the reference byte-for-byte, with no pair solved;
#   3. so do three shards of a codesign sweep;
#   4. with a --retries 2 run of shard 1/2 appended last, every shard-1
#      pair's last entry is stale: the resume re-solves exactly those
#      pairs, still prints the reference, and warns once, naming the
#      journal and the stale count;
#   5. journal compaction is idempotent, and one killed part-way by a
#      file-size limit leaves the journal byte-identical;
#   6. three shards of a delay sweep under --comm-model overlapped
#      resume into the unsharded report of the same model.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 path/to/thistle_cli.exe" >&2
    exit 2
fi

cli=$1
case $cli in */*) ;; *) cli=./$cli ;; esac
layer=resnet-2
opts="--layer $layer --max-choices 4 --jobs 2"

dir=$(mktemp -d "${TMPDIR:-/tmp}/thistle_sweep.XXXXXX")
trap 'rm -rf "$dir"' EXIT

fail() {
    echo "sweep smoke: $*" >&2
    exit 1
}

# same_report REF NAME: NAME.txt must equal the unsharded REF-full.txt.
same_report() {
    if ! cmp -s "$dir/$1-full.txt" "$dir/$2.txt"; then
        diff "$dir/$1-full.txt" "$dir/$2.txt" >&2 || true
        fail "$2: resumed report differs from the unsharded run"
    fi
}

# counter NAME KEY: the value of one counter in NAME's --metrics dump.
counter() {
    tr ',{}' '\n\n\n' < "$dir/$1.json" | sed -n "s/^\"$2\":\([0-9]*\)$/\1/p"
}

# shards NAME N ARGS...: runs ARGS unsharded and as N journaled shards,
# then resumes ARGS from the shard journals concatenated in reverse
# order.  The report must be the unsharded one and no pair re-solved.
shards() {
    name=$1
    n=$2
    shift 2
    "$cli" "$@" > "$dir/$name-full.txt"
    i=1
    while [ "$i" -le "$n" ]; do
        "$cli" "$@" --shard "$i/$n" --journal "$dir/$name-s$i.jsonl" > /dev/null
        i=$((i + 1))
    done
    : > "$dir/$name.jsonl"
    while [ "$i" -gt 1 ]; do
        i=$((i - 1))
        cat "$dir/$name-s$i.jsonl" >> "$dir/$name.jsonl"
    done
    "$cli" "$@" --journal "$dir/$name.jsonl" --resume \
        --metrics "$dir/$name.json" > "$dir/$name.txt"
    same_report "$name" "$name"
    solved=$(counter "$name" sweep.pairs_solved)
    [ "$solved" = 0 ] || fail "$name: resume solved $solved pair(s), expected 0"
}

# 2. Energy, two shards.
# shellcheck disable=SC2086
shards energy 2 optimize $opts

# 3. Codesign, three shards.
# shellcheck disable=SC2086
shards codesign 3 codesign $opts

# 4. A shard journaled under another solver config (a different retry
#    policy) appended last: each of its pairs' last entry is stale, so
#    the resume re-solves them under the command's config.
# shellcheck disable=SC2086
"$cli" optimize $opts --shard 1/2 --retries 2 \
    --journal "$dir/energy-s1-retries.jsonl" > /dev/null
stale=$(($(wc -l < "$dir/energy-s1-retries.jsonl")))
[ "$stale" -gt 0 ] || fail "the --retries 2 shard journaled nothing"
cat "$dir/energy-s1.jsonl" "$dir/energy-s2.jsonl" "$dir/energy-s1-retries.jsonl" \
    > "$dir/stale.jsonl"
# shellcheck disable=SC2086
"$cli" optimize $opts --journal "$dir/stale.jsonl" --resume \
    --metrics "$dir/stale.json" > "$dir/stale.txt" 2> "$dir/stale.err"
same_report energy stale
[ "$(counter stale sweep.journal_stale)" = "$stale" ] ||
    fail "sweep.journal_stale is $(counter stale sweep.journal_stale), expected $stale"
[ "$(counter stale sweep.pairs_solved)" = "$stale" ] ||
    fail "sweep.pairs_solved is $(counter stale sweep.pairs_solved), expected $stale"
warning="journal $dir/stale.jsonl: $stale stale entr"
if [ "$(grep -c "stale entr" "$dir/stale.err")" != 1 ] ||
    ! grep -qF "$warning" "$dir/stale.err"; then
    cat "$dir/stale.err" >&2
    fail "expected one warning naming the journal and $stale stale entries"
fi

# 5. `thistle journal compact` on an empty journal succeeds and leaves
#    it empty; compacting an already-compacted journal is a no-op.  A
#    compaction killed part-way (here by a 1-block file-size limit,
#    standing in for a full disk) must leave the journal as it was.
: > "$dir/empty.jsonl"
"$cli" journal compact "$dir/empty.jsonl" > /dev/null
[ ! -s "$dir/empty.jsonl" ] || fail "compacting an empty journal produced bytes"
cp "$dir/stale.jsonl" "$dir/stale.orig.jsonl"
[ "$(wc -c < "$dir/stale.jsonl")" -gt 4096 ] || fail "stale.jsonl is too small to outgrow the limit"
# The braces keep the shell's own "File size limit exceeded" report quiet.
{ (ulimit -f 1 && "$cli" journal compact "$dir/stale.jsonl") > /dev/null 2>&1 || true; } 2> /dev/null
cmp -s "$dir/stale.orig.jsonl" "$dir/stale.jsonl" ||
    fail "journal compact killed by a file-size limit changed the journal"
"$cli" journal compact "$dir/stale.jsonl" > /dev/null
! cmp -s "$dir/stale.orig.jsonl" "$dir/stale.jsonl" ||
    fail "journal compact left a journal with superseded entries unchanged"
cp "$dir/stale.jsonl" "$dir/stale.once.jsonl"
"$cli" journal compact "$dir/stale.jsonl" > /dev/null
cmp -s "$dir/stale.once.jsonl" "$dir/stale.jsonl" || fail "journal compact is not idempotent"

# 6. The delay model enters every journal fingerprint: the resume takes
#    the shards' --comm-model, or every journaled pair goes stale and is
#    re-solved under the other model.
# shellcheck disable=SC2086
shards delay 3 optimize $opts --objective delay --comm-model overlapped

echo "sweep smoke: energy, codesign and overlapped-delay shards resumed, stale shard, compact OK on $layer"
