#!/usr/bin/env bash
# scripts/parentdiff.sh — compare the nowperf virtual-time digests and
# failed-op counts of a git revision against the working tree.
#
# Usage (from anywhere in the repository):
#   scripts/parentdiff.sh            # REV defaults to HEAD~1
#   scripts/parentdiff.sh HEAD       # self-check: every row must be "same"
#   SEEDS="1 2" scripts/parentdiff.sh main
#
# REV's tree is exported with `git archive` into a temporary directory
# (no worktree is registered, so an interrupted run leaves nothing in
# .git) and its nowperf is built there, offline, with the local
# toolchain; the working tree's nowperf is built from bench/ as it
# stands. Every workload BENCHMARK.json declares then runs at every
# seed, first all of REV's runs and then all of the working tree's —
# never both at once, so each side has the host to itself. Each run is
# nowperf's warm-up plus its minimum three timed reps; a rep whose
# digest differs from the warm-up's fails the run.
#
# It prints one row per (workload, seed) with each side's digest and
# failed count, and exits non-zero if any row differs or any run fails.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-HEAD~1}"
seeds="${SEEDS:-1 2 3 4 5}"
workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)
if [ -z "$workloads" ]; then
    echo "parentdiff: no workloads found in BENCHMARK.json" >&2
    exit 2
fi
commit=$(git rev-parse --verify "$rev^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

mkdir -p "$tmp/rev/src"
git archive "$commit" | tar -x -C "$tmp/rev/src"
(cd "$tmp/rev/src/bench" && go build -o "$tmp/rev/nowperf" ./nowperf)
mkdir -p "$tmp/tree"
(cd bench && go build -o "$tmp/tree/nowperf" ./nowperf)

# field FILE KEY prints a top-level scalar of a nowperf report.
field() {
    sed -n "s/^  \"$2\": \"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}$/\1/p" "$1"
}

# side NAME runs every (workload, seed) with NAME's binary.
side() {
    local name=$1 start=$SECONDS w s
    for w in $workloads; do
        for s in $seeds; do
            if ! "$tmp/$name/nowperf" -workload "$w" -seed "$s" -seconds 0.001 \
                -out "$tmp/$name/out" >/dev/null 2>"$tmp/$name/$w-$s.err"; then
                echo "parentdiff: $name $w seed $s failed: $(tail -n 1 "$tmp/$name/$w-$s.err")" >&2
            fi
        done
    done
    echo "$name: $((SECONDS - start)) s wall" >&2
}
side rev
side tree

status=0
printf '%-20s %4s  %-16s %6s  %-16s %6s  %s\n' workload seed "$rev digest" failed "tree digest" failed verdict
for w in $workloads; do
    for s in $seeds; do
        row=()
        for name in rev tree; do
            f="$tmp/$name/out/$w-seed$s.json"
            if [ -f "$f" ] && [ "$(field "$f" correct)" = true ]; then
                row+=("$(field "$f" digest)" "$(field "$f" failed)")
            else
                row+=(error -)
            fi
        done
        verdict=same
        if [ "${row[0]}" = error ] || [ "${row[2]}" = error ] ||
            [ "${row[0]}" != "${row[2]}" ] || [ "${row[1]}" != "${row[3]}" ]; then
            verdict=DIFFERS
            status=1
        fi
        printf '%-20s %4s  %-16s %6s  %-16s %6s  %s\n' "$w" "$s" "${row[@]}" "$verdict"
    done
done
exit $status
