package analysis

import (
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEscapeCrossCheck validates the noalloc summaries against the
// compiler: `go build -gcflags=<module>/...=-m` of the whole module must not
// report an escape-to-heap (or moved-to-heap) diagnostic inside any
// hot-reachable function body, except in a region the analyzer itself
// discharged as cold or on an accepted amortized-growth line. The static
// analyzer and the compiler's escape analysis are independent
// implementations; where they disagree on a certified hot path, one of
// them is wrong and the build should say so.
func TestEscapeCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the module with -gcflags=-m")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	mod := BuildModule(pkgs)
	scopes := mod.EscapeScopes()
	if len(scopes) == 0 {
		t.Fatal("no hot-reachable scopes; //easyio:hotpath annotations missing?")
	}
	byFile := map[string][]EscapeScope{}
	for _, sc := range scopes {
		byFile[sc.File] = append(byFile[sc.File], sc)
	}

	// The shared build cache replays a cached package's compiler
	// diagnostics, and the module-only pattern leaves the standard
	// library's cached builds alone, so only changed packages recompile.
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	gcflags := "-gcflags=" + modPath + "/...=-m"
	cmd := exec.Command("go", "build", gcflags, "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", gcflags, err, out)
	}

	checked := 0
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		parts := strings.SplitN(line, ":", 4)
		if len(parts) < 4 {
			continue
		}
		file := parts[0]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		ln, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		for _, sc := range byFile[file] {
			if ln < sc.Body.From || ln > sc.Body.To {
				continue
			}
			checked++
			exempt := false
			for _, c := range sc.Cold {
				if ln >= c.From && ln <= c.To {
					exempt = true
				}
			}
			for _, a := range sc.Amortized {
				if ln == a {
					exempt = true
				}
			}
			for _, c := range sc.CallLines {
				if ln == c {
					exempt = true
				}
			}
			if !exempt {
				t.Errorf("compiler escape diagnostic inside certified hot body %s: %s", sc.Func, strings.TrimSpace(line))
			}
		}
	}
	t.Logf("%d hot scopes, %d escape diagnostics fell inside them", len(scopes), checked)
}
