#!/usr/bin/env bash
# nontestlines.sh — the two non-test line counts a change reports.
#
# Prints the physical lines (as wc -l counts them) of non-test Go files in
#   core+service: internal/core and internal/service;
#   root-module:  the root module, without tools/ and perfbench/ (modules
#                 of their own) and without hidden directories such as the
#                 benchmark's .bench_build/.
# Run it before and after a change and report both differences.
set -eu
cd "$(dirname "$0")/.."

lines() {
    find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
}

echo "core+service $(lines internal/core internal/service)"
echo "root-module $(lines . \( -path ./tools -o -path ./perfbench -o -path './.*' \) -prune -o -type f)"
