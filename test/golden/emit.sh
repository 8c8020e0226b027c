#!/bin/sh
# emit.sh THISTLE_CLI JOBS SUBCOMMAND ARGS...
#
# Runs one optimize/codesign invocation at --jobs JOBS with --emit into
# a fresh directory and prints the three Timeloop-style files it writes
# (problem.yaml, mapping.yaml, arch.yaml), each under a header naming
# the invocation (without --jobs, which must not change a byte) and the
# file.  The report on stdout is not printed: the report goldens pin it.
set -eu

cli=$1
jobs=$2
shift 2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$cli" "$@" --jobs "$jobs" --emit "$dir" > /dev/null
for f in problem.yaml mapping.yaml arch.yaml; do
    echo "== thistle $* : $f"
    cat "$dir/$f"
done
