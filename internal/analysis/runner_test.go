package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeTempModule materializes a small module on disk so the cache can
// hash real source bytes. Package b imports a; a carries one simtime
// finding and one suppressed one (so a warm run must not report the
// allow as stale).
func writeTempModule(t *testing.T) string {
	t.Helper()
	return writeFiles(t, map[string]string{
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
	})
}

// writeFiles writes files (relative path -> source) under a fresh temp
// directory and returns it.
func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
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

// appendFile appends text to the file at path.
func appendFile(t *testing.T, path, text string) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(src, text...), 0o644); err != nil {
		t.Fatal(err)
	}
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
	// The entry holds the final findings, so the suppression a's allow
	// earned cold must not turn into a stale-allow finding warm.
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

	// An edit anywhere misses the one whole-module entry: the imported a
	// and the leaf importer b alike. b's edit adds a finding, which the
	// cached run must report exactly as an uncached one does.
	check := func(edited string) {
		t.Helper()
		pkgs := loadTemp(t, root)
		res := RunAnalyzersOpts(pkgs, All(), RunOptions{Cache: cache})
		if res.CacheHits != 0 || res.CacheMisses != len(pkgs) {
			t.Fatalf("after editing %s: hits=%d misses=%d, want %d misses", edited, res.CacheHits, res.CacheMisses, len(pkgs))
		}
		if want := RunAnalyzers(loadTemp(t, root), All()); !reflect.DeepEqual(res.Diags, want) {
			t.Fatalf("after editing %s: cached run %v, uncached %v", edited, res.Diags, want)
		}
	}
	appendFile(t, filepath.Join(root, "a", "a.go"), "\nfunc Extra() {}\n")
	check("a")
	b := `package b

import (
	"time"

	"example.com/tmpmod/a"
)

func Use() int64 { return a.Stamp() + time.Now().Unix() }
`
	if err := os.WriteFile(filepath.Join(root, "b", "b.go"), []byte(b), 0o644); err != nil {
		t.Fatal(err)
	}
	check("b")
	if res := RunAnalyzers(loadTemp(t, root), All()); len(res) != 2 {
		t.Fatalf("want a's and b's simtime findings after the edits, got %v", res)
	}
}

// TestRunnerCacheReplaysStaleAllow: staleallow is judged over the whole
// run, and the entry stores the final findings, so a warm run reports a
// stale //easyio:allow exactly as the cold run did, without type
// checking.
func TestRunnerCacheReplaysStaleAllow(t *testing.T) {
	root := writeFiles(t, map[string]string{
		"go.mod": "module example.com/stalemod\n\ngo 1.21\n",
		"s/s.go": `package s

//easyio:allow simtime (nothing here reads the host clock any more)
func Pure() int { return 1 }
`,
	})
	cache := OpenCache(filepath.Join(root, ".cache"))
	cold := RunAnalyzersOpts(loadTemp(t, root), All(), RunOptions{Cache: cache})
	if len(cold.Diags) != 1 || cold.Diags[0].Analyzer != StaleAllow.Name {
		t.Fatalf("cold run: want one staleallow finding, got %v", cold.Diags)
	}

	parsed, err := ParseModule(root)
	if err != nil {
		t.Fatal(err)
	}
	typeChecked := false
	warm := RunAnalyzersOpts(parsed, All(), RunOptions{
		Cache:       cache,
		EnsureTypes: func() { typeChecked = true; TypeCheck(parsed) },
	})
	if typeChecked || warm.CacheMisses != 0 {
		t.Fatalf("warm run: typeChecked=%v misses=%d, want an all-hit run", typeChecked, warm.CacheMisses)
	}
	if !reflect.DeepEqual(cold.Diags, warm.Diags) {
		t.Fatalf("cold and warm findings differ:\n%v\n%v", cold.Diags, warm.Diags)
	}
}

// TestSortDiagsTotalOrder: findings tied on (file, line, column,
// analyzer) come out in one order whatever order they were collected in.
func TestSortDiagsTotalOrder(t *testing.T) {
	pos := token.Position{Filename: "x.go", Line: 3, Column: 1}
	tied := []Diagnostic{
		{Pos: pos, Analyzer: "lockorder", Message: "b before a"},
		{Pos: pos, Analyzer: "lockorder", Message: "a before b"},
		{Pos: token.Position{Filename: "x.go", Line: 2, Column: 1}, Analyzer: "simtime", Message: "z"},
	}
	var outs [][]Diagnostic
	for _, order := range [][]int{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}} {
		var in []Diagnostic
		for _, i := range order {
			in = append(in, tied[i])
		}
		sortDiags(in)
		outs = append(outs, in)
	}
	for _, out := range outs[1:] {
		if !reflect.DeepEqual(outs[0], out) {
			t.Fatalf("input order leaked into the sorted output:\n%v\n%v", outs[0], out)
		}
	}
	if outs[0][1].Message != "a before b" {
		t.Fatalf("tie not broken by message: %v", outs[0])
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
