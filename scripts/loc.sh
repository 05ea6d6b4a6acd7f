#!/usr/bin/env bash
# scripts/loc.sh — Go line counts of the root module, split into
# non-test and test files. The bench/ module (its own go.mod) and build
# output directories are left out.
set -euo pipefail
cd "$(dirname "$0")/.."

gofiles() {
	find . \( -path ./bench -o -path ./.bench_build -o -path ./.git \) -prune \
		-o -type f -name '*.go' -print
}
lines() { xargs -r cat | wc -l; }

echo "non-test: $(gofiles | grep -v '_test\.go$' | lines)"
echo "test:     $(gofiles | grep '_test\.go$' | lines)"
