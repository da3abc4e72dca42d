#!/usr/bin/env bash
# Allocation-budget smoke: run the headline benchmarks — the
# single-backend mixed runs, the E14/E15 fleets and the million-client
# generator — once with -benchmem and fail if bytes allocated per op
# regress more than 10% over the checked-in budget
# (scripts/alloc_budget.txt). The budget encodes the hot path's
# allocation discipline — one rig-wide query pool, pooled patroller
# entries, dense per-class slices, batched trace dispatch — as a CI
# regression target rather than a one-off win.
#
# Usage:
#   scripts/alloc_budget.sh            # compare against the budget
#   scripts/alloc_budget.sh -update    # rewrite the budget from this run
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET=scripts/alloc_budget.txt
BENCH='^(BenchmarkSystemCostLimit|BenchmarkFig2|BenchmarkRoutingFleet|BenchmarkFleetFailover|BenchmarkMillionClients)$'

OUT=$(go test -run='^$' -bench="$BENCH" -benchtime=1x -benchmem -timeout 1800s .)
echo "$OUT"

# "BenchmarkFig2-8  1  ... 123456 B/op ..." -> "Fig2 123456"
MEASURED=$(echo "$OUT" | awk '/^Benchmark/ {
    name=$1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
    for (i = 3; i <= NF; i++) if ($(i) == "B/op") print name, $(i-1)
}')
if [[ -z "$MEASURED" ]]; then
    echo "alloc-budget: no B/op measurements parsed" >&2
    exit 1
fi

if [[ "${1:-}" == "-update" ]]; then
    echo "$MEASURED" > "$BUDGET"
    echo "alloc-budget: updated $BUDGET"
    exit 0
fi

fail=0
while read -r name bytes; do
    budget=$(awk -v n="$name" '$1 == n { print $2 }' "$BUDGET")
    if [[ -z "$budget" ]]; then
        echo "alloc-budget: $name missing from $BUDGET (run scripts/alloc_budget.sh -update)" >&2
        fail=1
        continue
    fi
    limit=$((budget + budget / 10))
    if ((bytes > limit)); then
        echo "alloc-budget: FAIL $name: $bytes B/op exceeds budget $budget (+10% = $limit)" >&2
        fail=1
    else
        echo "alloc-budget: ok   $name: $bytes B/op within budget $budget (+10% = $limit)"
    fi
done <<< "$MEASURED"
exit $fail
