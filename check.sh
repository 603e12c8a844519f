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

echo '== go run ./cmd/easyio-vet ./...'
go run ./cmd/easyio-vet ./...

echo '== analyzer registry completeness (>= 24 analyzers)'
n=$(go run ./cmd/easyio-vet -list | wc -l)
test "$n" -ge 24 || { echo "only $n analyzers registered"; exit 1; }

echo '== easyio-vet cache smoke (warm rerun byte-identical, all hits)'
go build -o /tmp/easyio-vet-check ./cmd/easyio-vet
rm -rf /tmp/easyio-vet-cache-check
/tmp/easyio-vet-check -cache-dir /tmp/easyio-vet-cache-check -benchjson /tmp/easyio-vet-cold.json ./... > /tmp/easyio-vet-cold.txt
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

echo '== easyio-vet parallel determinism (-parallel 4 vs 1, uncached)'
/tmp/easyio-vet-check -nocache -parallel 1 -partition /tmp/easyio-vet-part1.json ./... > /tmp/easyio-vet-p1.txt
/tmp/easyio-vet-check -nocache -parallel 4 -partition /tmp/easyio-vet-part4.json ./... > /tmp/easyio-vet-p4.txt
diff /tmp/easyio-vet-p1.txt /tmp/easyio-vet-p4.txt

echo '== partition report (deterministic, matches committed, lock graph acyclic)'
diff /tmp/easyio-vet-part1.json /tmp/easyio-vet-part4.json
diff /tmp/easyio-vet-part1.json partition.json || { echo "partition.json is stale; regenerate with: go run ./cmd/easyio-vet -nocache -partition partition.json ./..."; exit 1; }
grep -q '"acyclic": true' partition.json || { echo "lock-order graph is not acyclic"; exit 1; }
grep -q '"unguarded_findings": 0' partition.json || { echo "unguarded cross-node shared-mutable state detected"; exit 1; }
test "$(grep -c '"status": "clean"' partition.json)" -eq 6 || { echo "a typestate protocol is violated module-wide (see partition.json protocols)"; exit 1; }
rm -rf /tmp/easyio-vet-check /tmp/easyio-vet-cache-check /tmp/easyio-vet-cold.* /tmp/easyio-vet-warm.* /tmp/easyio-vet-p1.txt /tmp/easyio-vet-p4.txt /tmp/easyio-vet-part1.json /tmp/easyio-vet-part4.json

echo '== redundancy artifact gate (epoch-parity p99 <= 1.2x off, lag within bound)'
awk '
  function val(  v) { v = $2; gsub(/,/, "", v); return v + 0 }
  /"delay_bound_ns":/ { bound = val() }
  /"mode":/           { epoch = ($2 ~ /"epoch"/) }
  /"p99_ratio":/ && epoch {
    cells++
    if (val() > 1.2) { printf "epoch-parity p99 ratio %s exceeds 1.2x parity-off\n", $2; bad = 1 }
  }
  /"max_lag_ns":/ && epoch {
    if (val() > bound) { printf "epoch parity max lag %s ns exceeds delay bound %d ns\n", $2, bound; bad = 1 }
  }
  END {
    if (cells == 0) { print "no epoch-mode cells in BENCH_redundancy.json"; bad = 1 }
    exit bad
  }
' BENCH_redundancy.json || { echo "BENCH_redundancy.json violates the parity trade-off gate; regenerate with: go run ./cmd/easyio-serve -redjson BENCH_redundancy.json"; exit 1; }

echo '== go test ./...'
go test ./...

echo '== nested benchmark module builds against this API (vet + short tests)'
(cd cmd/easyio-benchmark && go vet ./... && go test -short ./...)

echo '== go test -race -tags easyio_invariants ./...'
go test -race -tags easyio_invariants ./...

echo '== bench smoke (one iteration of every benchmark)'
go test -run '^$' -bench . -benchtime 1x ./internal/nova ./internal/sim .

echo '== job pool byte-identity (every experiment, fig9 included; -workers 1 vs 4)'
same_output ./cmd/easyio-bench '-exp all -quick -workers 1' '-exp all -quick -workers 4'

echo '== serving job pool byte-identity (serve and redundancy cells; -workers 1 vs 4)'
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
