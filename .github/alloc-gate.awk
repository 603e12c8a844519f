# alloc-gate.awk compares an `easyio-bench -benchjson` report against the
# committed BENCH_sim.json and fails if any experiment's allocs or
# alloc_bytes exceeds 1.10x its committed value. check.sh and CI both run
#
#   awk -f .github/alloc-gate.awk BENCH_sim.json <fresh report>
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
