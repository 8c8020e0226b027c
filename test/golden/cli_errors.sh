#!/bin/sh
# cli_errors.sh THISTLE_CLI
#
# Prints, for each invalid invocation below, the command, its stderr
# and its exit status.  Each is refused by the request resolver the
# serve daemon uses, so the CLI prints the daemon's message and exits 1
# before any solve.
set -u

cli=$1
for args in \
    "optimize --layer resnet-2 --pes 0" \
    "optimize --layer resnet-2 --regs 0" \
    "optimize --layer resnet-2 --sram 0" \
    "optimize --layer resnet-2 --node 0" \
    "optimize --layer resnet-2 --top-choices 0" \
    "optimize --layer resnet-2 --max-choices 0" \
    "optimize --layer no-such-layer" \
    "codesign --layer resnet-2 --area=0" \
    "codesign --layer resnet-2 --node 0" \
    "pipeline --pipeline alexnet --max-choices 0" \
    "metrics --layer resnet-2 --top-choices 0" \
    "merge --layer resnet-2 --sram 0 --journal merged.jsonl shard.jsonl" \
    "presolve --layer resnet-2 --pes 0" \
    "lint --node 0"
do
    echo "\$ thistle $args"
    # shellcheck disable=SC2086
    "$cli" $args 2>&1 > /dev/null
    echo "exit $?"
done
