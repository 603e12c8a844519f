#!/bin/sh
# check.sh — the tier-1 verification gate and the one list of gates: CI
# (.github/workflows/ci.yml) runs this script. Run from the module root.
# Fails fast on the first broken step. Leaves /tmp/easyio-vet.sarif and
# /tmp/easyio-vet-partition.json behind for CI to upload.
set -eu
check_start=$(date +%s)

# same_output ARGS runs easyio-bench ($bench, built below) with the
# (word-split) argument list at GOMAXPROCS=1 and at GOMAXPROCS=4, and
# fails unless both outputs are identical.
same_output() {
  GOMAXPROCS=1 "$bench" $1 > "$bench.a"
  GOMAXPROCS=4 "$bench" $1 > "$bench.b"
  diff "$bench.a" "$bench.b"
  rm -f "$bench.a" "$bench.b"
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

echo '== easyio-vet gate + cold run telemetry (0 findings; -benchjson, -sarif)'
vet=/tmp/easyio-vet-check
go build -o "$vet" ./cmd/easyio-vet
"$vet" -sarif /tmp/easyio-vet.sarif -benchjson /tmp/easyio-vet-cold.json ./...

echo '== analyzer registry completeness (>= 24 analyzers)'
n=$("$vet" -list | wc -l)
test "$n" -ge 24 || { echo "only $n analyzers registered"; exit 1; }

echo '== cold vet run within 2x of the BENCH_vet.json baseline'
cold_wall=$(grep -o '"wall_ms": [0-9.eE+-]*' /tmp/easyio-vet-cold.json | grep -o '[0-9.eE+-]*$')
base_wall=$(grep -o '"wall_ms": [0-9.eE+-]*' BENCH_vet.json | head -n 1 | grep -o '[0-9.eE+-]*$')
echo "cold vet: $cold_wall ms (baseline $base_wall ms, gate 2x)"
awk -v f="$cold_wall" -v b="$base_wall" 'BEGIN { exit !(f <= 2 * b) }' || { echo "cold vet run ($cold_wall ms) regressed past 2x baseline ($base_wall ms)"; exit 1; }

echo '== typestate engine cost (six protocols <= 25% of cold wall-clock)'
ts_ms=0
for p in svclifecycle horizonproto epochbudget handlestate persistorder parityepoch; do
  v=$(grep -o "\"$p\": [0-9.eE+-]*" /tmp/easyio-vet-cold.json | grep -o '[0-9.eE+-]*$')
  test -n "$v" || { echo "cold BENCH json missing analyzer timing for $p"; exit 1; }
  ts_ms=$(awk -v a="$ts_ms" -v b="$v" 'BEGIN { printf "%.6f", a + b }')
done
awk -v t="$ts_ms" -v w="$cold_wall" 'BEGIN { printf "six protocols: %.1f ms of %.1f ms cold wall-clock, share %.3f (gate 0.25)\n", t, w, t / w }'
awk -v t="$ts_ms" -v w="$cold_wall" 'BEGIN { exit !(t <= 0.25 * w) }' || { echo "typestate engine ($ts_ms ms) exceeds 25% of cold wall-clock ($cold_wall ms)"; exit 1; }

echo '== easyio-vet determinism (GOMAXPROCS=4 and default vs 1: findings and partition)'
GOMAXPROCS=1 "$vet" -partition /tmp/easyio-vet-partition.json ./... > /tmp/easyio-vet-out.txt
# An empty GOMAXPROCS leaves the runtime's default (the CPU count).
for procs in 4 ''; do
  GOMAXPROCS=$procs "$vet" -partition /tmp/easyio-vet-part.json ./... > /tmp/easyio-vet-cmp.txt
  diff /tmp/easyio-vet-out.txt /tmp/easyio-vet-cmp.txt
  diff /tmp/easyio-vet-partition.json /tmp/easyio-vet-part.json
done

echo '== easyio-vet package-filtered run judges module-wide rules on the whole module'
"$vet" internal/pmem internal/sim

echo '== partition report (matches committed, lock graph acyclic)'
diff /tmp/easyio-vet-partition.json partition.json || { echo "partition.json is stale; regenerate with: go run ./cmd/easyio-vet -partition partition.json ./..."; exit 1; }
grep -q '"acyclic": true' partition.json || { echo "lock-order graph is not acyclic"; exit 1; }
grep -q '"unguarded_findings": 0' partition.json || { echo "unguarded cross-node shared-mutable state detected"; exit 1; }
test "$(grep -c '"status": "clean"' partition.json)" -eq 6 || { echo "a typestate protocol is violated module-wide (see partition.json protocols)"; exit 1; }
# /tmp/easyio-vet.sarif and /tmp/easyio-vet-partition.json stay for CI to upload.
rm -f "$vet" /tmp/easyio-vet-cold.json /tmp/easyio-vet-out.txt /tmp/easyio-vet-cmp.txt /tmp/easyio-vet-part.json

echo '== go test ./...'
go test ./...

echo '== nested benchmark module builds against this API (vet + short tests)'
(cd cmd/easyio-benchmark && go vet ./... && go test -short ./...)

echo '== go test -race -tags easyio_invariants ./...'
go test -race -tags easyio_invariants ./...

echo '== bench smoke (one iteration of every benchmark)'
go test -run '^$' -bench . -benchtime 1x ./...

echo '== example and CLI programs run clean (examples/*, easyio-demo, easyio-bench -exp table2 -crashpoints 40)'
for p in ./examples/* ./cmd/easyio-demo; do
  go run "$p" > /dev/null || { echo "$p exited non-zero"; exit 1; }
done
bench=/tmp/easyio-bench-check
go build -o "$bench" ./cmd/easyio-bench
"$bench" -exp table2 -crashpoints 40 > /dev/null || { echo "easyio-bench -exp table2 -crashpoints 40 exited non-zero"; exit 1; }

echo '== job pool byte-identity (every experiment, fig9 included; GOMAXPROCS=1 vs 4)'
same_output '-exp all -quick'

echo '== full results reproduce byte for byte (easyio-bench -exp all -seed 42 vs results_full.txt)'
"$bench" -exp all -seed 42 -benchjson /tmp/easyio-bench-allocs.json | cmp - results_full.txt || { echo "results_full.txt no longer reproduces; virtual time moved"; exit 1; }

echo '== allocations per experiment (the run above; allocs and alloc_bytes each <= 1.10x BENCH_sim.json, wall-clock informational)'
awk -f .github/alloc-gate.awk BENCH_sim.json /tmp/easyio-bench-allocs.json || { echo "an experiment allocates more than 1.10x BENCH_sim.json; regenerate with: go run ./cmd/easyio-bench -exp all -seed 42 -benchjson BENCH_sim.json"; exit 1; }
rm -f /tmp/easyio-bench-allocs.json

echo '== serving job pool byte-identity (serve cells; GOMAXPROCS=1 vs 4)'
same_output '-exp serve -quick'

echo '== serving results reproduce byte for byte (easyio-bench -exp serve -servejson vs BENCH_serve.json)'
"$bench" -exp serve -servejson /tmp/easyio-serve.json > /dev/null && cmp /tmp/easyio-serve.json BENCH_serve.json || { echo "BENCH_serve.json no longer reproduces; virtual time moved (a serve or fleet digest, or blimit_final)"; exit 1; }
rm -f /tmp/easyio-serve.json

echo '== -cpuprofile smoke (easyio-bench writes a non-empty profile)'
"$bench" -exp fig8 -quick -cpuprofile /tmp/easyio-bench.prof > /dev/null
test -s /tmp/easyio-bench.prof || { echo "/tmp/easyio-bench.prof is missing or empty"; exit 1; }
rm -f "$bench" /tmp/easyio-bench.prof

echo "check.sh: all gates green in $(( $(date +%s) - check_start )) s"
