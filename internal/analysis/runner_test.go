package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeTempModule materializes a small module on disk. Package b
// imports a; a carries one simtime finding and one suppressed one (so
// the allow must not be reported as stale).
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

// TestRunnerSuppressesAllowedSite: over a parse-only load with
// TypeCheck as the EnsureTypes hook (the CLI's wiring), the runner type
// checks once, builds the module view, reports a's one unsuppressed
// simtime finding and does not report the allowed site as stale.
func TestRunnerSuppressesAllowedSite(t *testing.T) {
	root := writeTempModule(t)
	parsed, err := ParseModule(root)
	if err != nil {
		t.Fatal(err)
	}
	typeChecks := 0
	res := RunAnalyzersOpts(parsed, All(), RunOptions{
		EnsureTypes: func() { typeChecks++; TypeCheck(parsed) },
	})
	if typeChecks != 1 {
		t.Fatalf("EnsureTypes called %d times, want once", typeChecks)
	}
	if res.Mod == nil || res.BuildModuleMS <= 0 {
		t.Fatalf("Mod=%v BuildModuleMS=%v, want the module view built and charged", res.Mod, res.BuildModuleMS)
	}
	if len(res.Diags) != 1 || res.Diags[0].Analyzer != Simtime.Name || filepath.Base(res.Diags[0].Pos.Filename) != "a.go" {
		t.Fatalf("want exactly a's one unsuppressed simtime finding, got %v", res.Diags)
	}
}

// TestRunnerReportsStaleAllow: staleallow is judged over the whole run,
// so an //easyio:allow that suppresses nothing is exactly one finding.
func TestRunnerReportsStaleAllow(t *testing.T) {
	root := writeFiles(t, map[string]string{
		"go.mod": "module example.com/stalemod\n\ngo 1.21\n",
		"s/s.go": `package s

//easyio:allow simtime (nothing here reads the host clock any more)
func Pure() int { return 1 }
`,
	})
	res := RunAnalyzersOpts(loadTemp(t, root), All(), RunOptions{})
	if len(res.Diags) != 1 || res.Diags[0].Analyzer != StaleAllow.Name {
		t.Fatalf("want one staleallow finding, got %v", res.Diags)
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
