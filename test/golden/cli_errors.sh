#!/bin/sh
# cli_errors.sh THISTLE_CLI
#
# Prints, for each invalid invocation below, the command, its stderr
# and its exit status.  The request errors are refused by the resolver
# the serve daemon uses, so the CLI prints the daemon's message and
# exits 1 before any solve; that includes nodes so extreme that the
# (node/45)^2 technology scaling leaves the float range.  A node just
# short of that passes the resolver, but a scaled constant times the
# layer's MAC count overflows: the formulate stage refuses the pair,
# naming it and the coefficient, and the CLI exits 1; the audit refuses
# such a node the same way.  The output errors name a file (/dev/null)
# as the --emit directory or a missing directory for --emit-code,
# --trace or --metrics: each exits 1 with a message naming the path
# once, never an uncaught exception.  The output errors come after the
# solve, whose report goes to stdout.  An audit or mapper search that
# would check nothing (no choices, no trials) is refused.  The daemon
# refuses a socket under a missing directory and a negative admission
# limit before it serves anything, and the daemon and client refuse a
# port outside 0..65535.  A client whose daemon is
# not there names the socket it could not connect to.
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
    "optimize --layer resnet-2 --node 1e300" \
    "optimize --layer resnet-2 --node 1e-300" \
    "codesign --layer resnet-2 --node 1e-160" \
    "optimize --layer resnet-2 --max-choices 1 --node 1e154" \
    "pipeline --pipeline alexnet --max-choices 0" \
    "audit --layer resnet-2 --pes 0" \
    "audit --node 0" \
    "audit --layer resnet-2 --max-choices 0" \
    "audit --layer resnet-2 --max-choices 1 --node 1e152" \
    "mapper --layer resnet-2 --trials 0" \
    "mapper --layer resnet-2 --victory 0" \
    "optimize --layer resnet-2 --max-choices 2 --emit /dev/null" \
    "optimize --layer resnet-2 --max-choices 2 --emit-code missing/code.txt" \
    "optimize --layer resnet-2 --max-choices 2 --trace missing/trace.jsonl" \
    "optimize --layer resnet-2 --max-choices 2 --metrics missing/metrics.json" \
    "serve --socket missing/dir/sock" \
    "serve --socket s.sock --max-inflight=-1" \
    "client metrics --port 70000" \
    "client metrics --socket missing.sock"
do
    echo "\$ thistle $args"
    # shellcheck disable=SC2086
    "$cli" $args 2>&1 > /dev/null
    echo "exit $?"
done
