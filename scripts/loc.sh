#!/usr/bin/env bash
# Non-test LOC ledger: prints the number of lines in the module's non-test
# Go files, excluding the benchmark harness (perfbench/, its own module).
# CHANGES.md reports this number before and after every change that
# deletes or adds code; CI prints it so every run log records it.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' | xargs cat | wc -l
