package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeTempModule materializes a small module on disk so the cache can
// hash real source bytes. Package b imports a; a carries one simtime
// finding and one suppressed one (exercising UsedAllow replay).
func writeTempModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/tmpmod\n\ngo 1.21\n",
		"a/a.go": `package a

import "time"

func Stamp() int64 { return time.Now().UnixNano() }

//easyio:allow simtime (operator-facing ETA, never enters the simulation)
func ETA() int64 { return time.Now().Unix() }
`,
		"b/b.go": `package b

import "example.com/tmpmod/a"

func Use() int64 { return a.Stamp() }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func loadTemp(t *testing.T, root string) []*Package {
	t.Helper()
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func TestRunnerParallelDeterministic(t *testing.T) {
	root := writeTempModule(t)
	pkgs := loadTemp(t, root)
	var runs [][]Diagnostic
	for _, workers := range []int{1, 4} {
		res := RunAnalyzersOpts(pkgs, All(), RunOptions{Workers: workers})
		runs = append(runs, res.Diags)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("workers=1 and workers=4 disagree:\n%v\n%v", runs[0], runs[1])
	}
	if len(runs[0]) != 1 {
		t.Fatalf("want exactly the one unsuppressed simtime finding, got %v", runs[0])
	}
}

func TestRunnerCacheWarmIdentical(t *testing.T) {
	root := writeTempModule(t)
	cache := OpenCache(filepath.Join(root, ".cache"))

	pkgs := loadTemp(t, root)
	cold := RunAnalyzersOpts(pkgs, All(), RunOptions{Cache: cache})
	if cold.CacheHits != 0 || cold.CacheMisses != len(pkgs) {
		t.Fatalf("cold run: hits=%d misses=%d", cold.CacheHits, cold.CacheMisses)
	}

	// Reload from scratch — the warm path must not depend on any state
	// carried in the Package values, only on the cache directory. The
	// parse-only load plus EnsureTypes mirrors the CLI wiring; an all-hit
	// run must never invoke the type checker.
	parsed, err := ParseModule(root)
	if err != nil {
		t.Fatal(err)
	}
	typeChecked := false
	warm := RunAnalyzersOpts(parsed, All(), RunOptions{
		Cache:       cache,
		EnsureTypes: func() { typeChecked = true; TypeCheck(parsed) },
	})
	if warm.CacheHits != len(parsed) || warm.CacheMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d", warm.CacheHits, warm.CacheMisses)
	}
	if typeChecked {
		t.Fatal("warm all-hit run invoked the type checker")
	}
	if cold.BuildModuleMS <= 0 || warm.BuildModuleMS != 0 {
		t.Fatalf("BuildModuleMS cold=%v warm=%v, want it charged only when the module view is built", cold.BuildModuleMS, warm.BuildModuleMS)
	}
	if !reflect.DeepEqual(cold.Diags, warm.Diags) {
		t.Fatalf("cold and warm findings differ:\n%v\n%v", cold.Diags, warm.Diags)
	}
	// The suppressed finding's usage must replay from the cache: a stale
	// //easyio:allow would otherwise surface on every warm run.
	for _, d := range warm.Diags {
		if d.Analyzer == StaleAllow.Name {
			t.Fatalf("warm run reported a stale allow: %v", d)
		}
	}
}

func TestRunnerCacheInvalidatesOnEdit(t *testing.T) {
	root := writeTempModule(t)
	cache := OpenCache(filepath.Join(root, ".cache"))
	RunAnalyzersOpts(loadTemp(t, root), All(), RunOptions{Cache: cache})

	// Editing a invalidates both a and its importer b (bidirectional
	// closure): b's findings could depend on a's summaries.
	path := filepath.Join(root, "a", "a.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(src, []byte("\nfunc Extra() {}\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	res := RunAnalyzersOpts(loadTemp(t, root), All(), RunOptions{Cache: cache})
	if res.CacheMisses != 2 {
		t.Fatalf("after editing a: hits=%d misses=%d, want 2 misses", res.CacheHits, res.CacheMisses)
	}
}

func TestRunnerCacheKeyedByAnalyzerSet(t *testing.T) {
	root := writeTempModule(t)
	cache := OpenCache(filepath.Join(root, ".cache"))
	RunAnalyzersOpts(loadTemp(t, root), All(), RunOptions{Cache: cache})

	// A -only style partial run must not replay full-run entries (its
	// findings and staleallow judgments differ).
	res := RunAnalyzersOpts(loadTemp(t, root), []*Analyzer{Detrand}, RunOptions{Cache: cache})
	if res.CacheHits != 0 {
		t.Fatalf("partial analyzer set hit full-run cache entries: hits=%d", res.CacheHits)
	}
}
