package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

func age(t *testing.T, dir, name string, d time.Duration) {
	t.Helper()
	when := time.Now().Add(-d)
	if err := os.Chtimes(filepath.Join(dir, name), when, when); err != nil {
		t.Fatal(err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	c := OpenCache(dir)
	c.maxEntries = 2
	ent := cacheEntry{Findings: []Diagnostic{}}

	c.put("k1", ent)
	c.put("k2", ent)
	age(t, dir, "k1.json", 2*time.Hour)
	age(t, dir, "k2.json", time.Hour)

	// The third put exceeds the cap: the oldest entry (k1) is evicted.
	c.put("k3", ent)
	got := cacheFiles(t, dir)
	want := []string{"k2.json", "k3.json"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("after put k3: files %v, want %v", got, want)
	}

	// A hit refreshes recency: touch k2, then overflow again — the
	// untouched k3 goes, the freshly used k2 survives.
	age(t, dir, "k2.json", 2*time.Hour)
	age(t, dir, "k3.json", time.Hour)
	if _, ok := c.get("k2"); !ok {
		t.Fatal("k2 should still be readable")
	}
	c.put("k4", ent)
	got = cacheFiles(t, dir)
	want = []string{"k2.json", "k4.json"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("after get k2 + put k4: files %v, want %v", got, want)
	}
}

// TestCacheDefaultCapBoundsRealRun exercises the cap through the runner
// over a real on-disk module: each run writes exactly one entry, and with
// maxEntries 1 a new tree state evicts the old one, yet every run still
// produces the uncached findings.
func TestCacheDefaultCapBoundsRealRun(t *testing.T) {
	if OpenCache(t.TempDir()).maxEntries != defaultCacheEntries {
		t.Fatalf("OpenCache default cap = %d, want %d", OpenCache(t.TempDir()).maxEntries, defaultCacheEntries)
	}
	root := writeTempModule(t)
	dir := filepath.Join(root, ".cache")
	cache := OpenCache(dir)
	cache.maxEntries = 1

	first := RunAnalyzersOpts(loadTemp(t, root), All(), RunOptions{Cache: cache})
	firstFiles := cacheFiles(t, dir)
	if len(firstFiles) != 1 {
		t.Fatalf("one run wrote %d entries (%v), want 1", len(firstFiles), firstFiles)
	}
	appendFile(t, filepath.Join(root, "b", "b.go"), "\nfunc Extra() {}\n")
	second := RunAnalyzersOpts(loadTemp(t, root), All(), RunOptions{Cache: cache})
	if got := cacheFiles(t, dir); len(got) != 1 || got[0] == firstFiles[0] {
		t.Fatalf("cap 1 after a second tree state: entries %v, want one replacing %v", got, firstFiles)
	}
	third := RunAnalyzersOpts(loadTemp(t, root), All(), RunOptions{Cache: cache})
	if third.CacheMisses != 0 {
		t.Fatalf("rerun of the second tree state missed: hits=%d misses=%d", third.CacheHits, third.CacheMisses)
	}
	for _, res := range []*RunResult{first, second, third} {
		if want := RunAnalyzers(loadTemp(t, root), All()); !reflect.DeepEqual(res.Diags, want) {
			t.Fatalf("cached findings %v, want the uncached %v", res.Diags, want)
		}
	}
}

// TestCacheKeyIncludesProtocolSpecs proves a protocol-spec edit
// invalidates warm cache entries: the typestate fingerprint is folded
// into the key, so adding a transition to a declared automaton changes
// it even though no hashed source changed.
func TestCacheKeyIncludesProtocolSpecs(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "fixture.go")
	src := "package fx\n\nfunc F() {}\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := fixturePkgFile(t, "fx", file, src)

	before := cacheKey([]*Package{pkg}, All())
	if before == "" {
		t.Fatal("disk-backed fixture produced an empty cache key")
	}

	op := &svcLifecycleProtocol.Ops[3]
	saved := op.Trans
	op.Trans = append([][2]string{{"ending", "running"}}, saved...)
	defer func() { op.Trans = saved }()

	if after := cacheKey([]*Package{pkg}, All()); after == before {
		t.Errorf("cache key unchanged after protocol-spec edit: %q", after)
	}
}
