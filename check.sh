#!/bin/sh
# check.sh — the tier-1 verification gate, mirroring .github/workflows/ci.yml.
# Run from the module root. Fails fast on the first broken step.
set -eu

# same_output PKG ARGS_A ARGS_B builds PKG, runs it once with each
# (word-split) argument list, and fails unless both outputs are identical.
same_output() {
  bin=/tmp/easyio-same-output
  go build -o "$bin" "$1"
  "$bin" $2 > "$bin.a"
  "$bin" $3 > "$bin.b"
  diff "$bin.a" "$bin.b"
  rm -f "$bin" "$bin.a" "$bin.b"
}

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

echo '== gofmt -l . (every file formatted)'
test -z "$(gofmt -l .)" || { gofmt -l .; echo "run gofmt -w on the files above"; exit 1; }

echo '== internal/analysis non-test lines (informational, no gate)'
find internal/analysis -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

echo '== module non-test lines, excluding testdata and the nested benchmark module (informational, no gate)'
find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './cmd/easyio-benchmark/*' | xargs cat | wc -l

echo '== go run ./cmd/easyio-vet ./...'
go run ./cmd/easyio-vet ./...

echo '== analyzer registry completeness (>= 24 analyzers)'
n=$(go run ./cmd/easyio-vet -list | wc -l)
test "$n" -ge 24 || { echo "only $n analyzers registered"; exit 1; }

echo '== easyio-vet cache smoke (warm rerun byte-identical, all hits)'
go build -o /tmp/easyio-vet-check ./cmd/easyio-vet
rm -rf /tmp/easyio-vet-cache-check
/tmp/easyio-vet-check -cache-dir /tmp/easyio-vet-cache-check -benchjson /tmp/easyio-vet-cold.json ./... > /tmp/easyio-vet-cold.txt
n=$(ls /tmp/easyio-vet-cache-check/*.json | wc -l)
test "$n" -eq 1 || { echo "cold cached run left $n cache entries, want one per tree state"; exit 1; }
/tmp/easyio-vet-check -cache-dir /tmp/easyio-vet-cache-check -benchjson /tmp/easyio-vet-warm.json ./... > /tmp/easyio-vet-warm.txt
diff /tmp/easyio-vet-cold.txt /tmp/easyio-vet-warm.txt
grep -q '"cache_hits": 0' /tmp/easyio-vet-cold.json || { echo "cold run unexpectedly hit the cache"; exit 1; }
grep -q '"cache_misses": 0' /tmp/easyio-vet-warm.json || { echo "warm run missed the cache"; exit 1; }

echo '== typestate engine cost (six protocols <= 25% of cold wall-clock)'
cold_wall=$(grep -o '"wall_ms": [0-9.eE+-]*' /tmp/easyio-vet-cold.json | grep -o '[0-9.eE+-]*$')
ts_ms=0
for p in svclifecycle horizonproto epochbudget handlestate persistorder parityepoch; do
  v=$(grep -o "\"$p\": [0-9.eE+-]*" /tmp/easyio-vet-cold.json | grep -o '[0-9.eE+-]*$')
  test -n "$v" || { echo "cold BENCH json missing analyzer timing for $p"; exit 1; }
  ts_ms=$(awk -v a="$ts_ms" -v b="$v" 'BEGIN { printf "%.6f", a + b }')
done
awk -v t="$ts_ms" -v w="$cold_wall" 'BEGIN { exit !(t <= 0.25 * w) }' || { echo "typestate engine ($ts_ms ms) exceeds 25% of cold wall-clock ($cold_wall ms)"; exit 1; }

echo '== easyio-vet parallel determinism (GOMAXPROCS=4 vs 1, uncached)'
GOMAXPROCS=1 /tmp/easyio-vet-check -nocache -partition /tmp/easyio-vet-part1.json ./... > /tmp/easyio-vet-p1.txt
GOMAXPROCS=4 /tmp/easyio-vet-check -nocache -partition /tmp/easyio-vet-part4.json ./... > /tmp/easyio-vet-p4.txt
diff /tmp/easyio-vet-p1.txt /tmp/easyio-vet-p4.txt

echo '== easyio-vet type-check determinism (GOMAXPROCS=1 vs default, uncached)'
GOMAXPROCS=1 /tmp/easyio-vet-check -nocache -partition /tmp/easyio-vet-partg1.json ./... > /tmp/easyio-vet-g1.txt
/tmp/easyio-vet-check -nocache -partition /tmp/easyio-vet-partdef.json ./... > /tmp/easyio-vet-def.txt
diff /tmp/easyio-vet-g1.txt /tmp/easyio-vet-def.txt
diff /tmp/easyio-vet-partg1.json /tmp/easyio-vet-partdef.json

echo '== easyio-vet package-filtered run judges module-wide rules on the whole module'
/tmp/easyio-vet-check -nocache internal/pmem internal/sim

echo '== partition report (deterministic, matches committed, lock graph acyclic)'
diff /tmp/easyio-vet-part1.json /tmp/easyio-vet-part4.json
diff /tmp/easyio-vet-part1.json partition.json || { echo "partition.json is stale; regenerate with: go run ./cmd/easyio-vet -nocache -partition partition.json ./..."; exit 1; }
grep -q '"acyclic": true' partition.json || { echo "lock-order graph is not acyclic"; exit 1; }
grep -q '"unguarded_findings": 0' partition.json || { echo "unguarded cross-node shared-mutable state detected"; exit 1; }
test "$(grep -c '"status": "clean"' partition.json)" -eq 6 || { echo "a typestate protocol is violated module-wide (see partition.json protocols)"; exit 1; }
rm -rf /tmp/easyio-vet-check /tmp/easyio-vet-cache-check /tmp/easyio-vet-cold.* /tmp/easyio-vet-warm.* /tmp/easyio-vet-p1.txt /tmp/easyio-vet-p4.txt /tmp/easyio-vet-part1.json /tmp/easyio-vet-part4.json /tmp/easyio-vet-g1.txt /tmp/easyio-vet-def.txt /tmp/easyio-vet-partg1.json /tmp/easyio-vet-partdef.json

echo '== go test ./...'
go test ./...

echo '== nested benchmark module builds against this API (vet + short tests)'
(cd cmd/easyio-benchmark && go vet ./... && go test -short ./...)

echo '== go test -race -tags easyio_invariants ./...'
go test -race -tags easyio_invariants ./...

echo '== bench smoke (one iteration of every benchmark)'
go test -run '^$' -bench . -benchtime 1x ./...

echo '== example and CLI programs run clean (examples/*, easyio-demo, easyio-crashtest -points 40)'
for p in ./examples/* ./cmd/easyio-demo; do
  go run "$p" > /dev/null || { echo "$p exited non-zero"; exit 1; }
done
go run ./cmd/easyio-crashtest -points 40 > /dev/null || { echo "easyio-crashtest -points 40 exited non-zero"; exit 1; }

echo '== job pool byte-identity (every experiment, fig9 included; -workers 1 vs 4)'
same_output ./cmd/easyio-bench '-exp all -quick -workers 1' '-exp all -quick -workers 4'

echo '== full results reproduce byte for byte (easyio-bench -exp all -seed 42 vs results_full.txt)'
go run ./cmd/easyio-bench -exp all -seed 42 -benchjson /tmp/easyio-bench-allocs.json | cmp - results_full.txt || { echo "results_full.txt no longer reproduces; virtual time moved"; exit 1; }

echo '== allocations per experiment (the run above; allocs and alloc_bytes each <= 1.10x BENCH_sim.json, wall-clock informational)'
awk '
  FNR == 1 { file++ }
  /"name":/ { name = $2; gsub(/[",]/, "", name) }
  /"allocs":/ || /"alloc_bytes":/ {
    key = $1; gsub(/[":]/, "", key)
    v = $2 + 0
    if (file == 1) { base[name, key] = v; next }
    seen[key]++
    if (!((name, key) in base)) { printf "experiment %s has no committed %s in BENCH_sim.json\n", name, key; bad = 1 }
    else if (v > 1.10 * base[name, key]) { printf "experiment %s made %.0f %s, over 1.10x the committed %.0f\n", name, v, key, base[name, key]; bad = 1 }
  }
  END {
    if (!seen["allocs"] || !seen["alloc_bytes"]) { print "the -benchjson run recorded no allocs or alloc_bytes"; bad = 1 }
    exit bad
  }
' BENCH_sim.json /tmp/easyio-bench-allocs.json || { echo "an experiment allocates more than 1.10x BENCH_sim.json; regenerate with: go run ./cmd/easyio-bench -exp all -seed 42 -benchjson BENCH_sim.json"; exit 1; }
rm -f /tmp/easyio-bench-allocs.json

echo '== serving job pool byte-identity (serve cells; -workers 1 vs 4)'
same_output ./cmd/easyio-serve '-quick -workers 1' '-quick -workers 4'

echo '== -cpuprofile smoke (easyio-bench and easyio-serve write a non-empty profile)'
for cmd in easyio-bench easyio-serve; do
  go build -o /tmp/$cmd-prof ./cmd/$cmd
done
/tmp/easyio-bench-prof -exp fig8 -quick -cpuprofile /tmp/easyio-bench.prof > /dev/null
/tmp/easyio-serve-prof -quick -cpuprofile /tmp/easyio-serve.prof > /dev/null
for p in /tmp/easyio-bench.prof /tmp/easyio-serve.prof; do
  test -s "$p" || { echo "$p is missing or empty"; exit 1; }
done
rm -f /tmp/easyio-bench-prof /tmp/easyio-serve-prof /tmp/easyio-bench.prof /tmp/easyio-serve.prof

echo 'check.sh: all gates green'
