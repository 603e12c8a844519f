// Command easyio-vet runs the EasyIO determinism & locking analyzer
// suite (internal/analysis) over the whole module and exits nonzero on
// findings. CI and check.sh gate every change on it:
//
//	go run ./cmd/easyio-vet ./...          # whole module
//	go run ./cmd/easyio-vet internal/core  # one package and those below it
//	go run ./cmd/easyio-vet -list          # show the analyzers
//	go run ./cmd/easyio-vet -only lockbalance ./...
//	go run ./cmd/easyio-vet -sarif vet.sarif ./...
//	go run ./cmd/easyio-vet -partition partition.json ./...
//
// A package pattern matches whole import-path segments ("bench" is
// internal/bench, not internal/filebench) and the packages below them;
// a pattern that matches no package exits 2. Patterns only select which
// findings are printed: every run analyzes the whole module, because
// the module-wide rules (lock order, confinement, hot paths, protocols)
// judge a package by its callers and callees elsewhere; -partition
// always describes the whole module.
//
// GOMAXPROCS is the one width knob: it bounds both the concurrent type
// checks and the per-package analyzer pool (set the GOMAXPROCS
// environment variable to change it). Output is identical at any width.
//
// Exit status: 0 clean, 1 findings, 2 load/type-check or I/O failure —
// CI can tell a regression from a broken build.
//
// Intentional violations are suppressed in source with a rationale:
//
//	//easyio:allow <analyzer...> (why this site is safe)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/easyio-sim/easyio/internal/analysis"
)

// benchReport is the BENCH_vet.json shape: enough to track the vet's own
// wall-clock cost across commits.
type benchReport struct {
	WallMS float64 `json:"wall_ms"`
	// ParseMS is ParseModule; TypeCheckMS is TypeCheck. Both are inside
	// WallMS.
	ParseMS     float64 `json:"parse_ms"`
	TypeCheckMS float64 `json:"typecheck_ms"`
	// BuildModuleMS is the run's BuildModule call: CallGraphMS (the
	// call graph and its SCCs), then parallel jobs for SummariesMS (the
	// effect summaries) and the module-wide analyzers' passes, which the
	// analyzers map charges.
	BuildModuleMS float64 `json:"build_module_ms"`
	CallGraphMS   float64 `json:"callgraph_ms"`
	SummariesMS   float64 `json:"summaries_ms"`
	Packages      int     `json:"packages"`
	Findings      int     `json:"findings"`
	Workers       int     `json:"workers"`
	// Analyzers breaks the run down per analyzer in milliseconds. A
	// module-wide analyzer includes its BuildModule pass, timed as wall
	// time inside its job, so those milliseconds count in both
	// build_module_ms and here; the jobs overlap, so their sum can
	// exceed build_module_ms.
	Analyzers map[string]float64 `json:"analyzers"`
}

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	benchPath := flag.String("benchjson", "", "write runner telemetry (BENCH_vet.json shape) to this file")
	partitionPath := flag.String("partition", "", "write the concurrency partition report (confinement classes + lock-order graph) as JSON to this file")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			if states, trans, ok := analysis.ProtocolStats(a.Name); ok {
				fmt.Printf("%-14s %s [typestate: %d states, %d transitions]\n", a.Name, a.Doc, states, trans)
			} else {
				fmt.Printf("%-14s %s\n", a.Name, a.Doc)
			}
		}
		return
	}

	analyzers := analysis.All()
	if *only != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*only, ","))
		if err != nil {
			fatal(err)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	all, err := analysis.ParseModule(root)
	if err != nil {
		fatal(err)
	}
	parseMS := msSince(start)
	pkgs, err := filterPackages(all, flag.Args())
	if err != nil {
		fatal(err)
	}

	// Fail loudly on type errors: analyzers degrade silently without
	// full type information, and the tree is expected to compile.
	typeErrs := 0
	var typeCheckMS float64
	workers := runtime.GOMAXPROCS(0)
	res := analysis.RunAnalyzersOpts(all, analyzers, analysis.RunOptions{
		Workers: workers,
		EnsureTypes: func() {
			t := time.Now()
			analysis.TypeCheck(all)
			typeCheckMS = msSince(t)
			for _, pkg := range all {
				for _, e := range pkg.TypeErrors {
					fmt.Fprintf(os.Stderr, "typecheck: %v\n", e)
					typeErrs++
				}
			}
		},
	})
	diags := res.Diags
	if len(pkgs) < len(all) {
		diags = inPackages(diags, pkgs)
	}
	wallMS := msSince(start)

	for _, d := range diags {
		fmt.Println(d)
	}
	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, root, analyzers, diags); err != nil {
			fatal(err)
		}
	}
	if *partitionPath != "" {
		if err := analysis.WritePartition(*partitionPath, analysis.BuildPartition(res.Mod, root)); err != nil {
			fatal(err)
		}
	}
	if *benchPath != "" {
		rep := benchReport{
			WallMS:        wallMS,
			ParseMS:       parseMS,
			TypeCheckMS:   typeCheckMS,
			BuildModuleMS: res.BuildModuleMS,
			CallGraphMS:   res.CallGraphMS,
			SummariesMS:   res.SummariesMS,
			Packages:      res.Packages,
			Findings:      len(diags),
			Workers:       workers,
			Analyzers:     res.AnalyzerMS,
		}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*benchPath, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	// Exit codes let CI tell a regression from a broken build: findings
	// exit 1, load/type-check failures exit 2 (fatal() below shares 2).
	if len(diags) > 0 || typeErrs > 0 {
		fmt.Fprintf(os.Stderr, "easyio-vet: %d finding(s), %d type error(s)\n", len(diags), typeErrs)
		if typeErrs > 0 {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// SARIF 2.1.0 output, minimal but schema-valid: one run, one rule per
// registered analyzer, one result per finding with a file-relative URI.

type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
	// RelatedLocations is the typestate protocol trace — creation site
	// and each state transition leading to the violation, oldest first —
	// so SARIF viewers render the path, not just the endpoint.
	RelatedLocations []sarifLocation `json:"relatedLocations,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
	Message          *sarifMessage `json:"message,omitempty"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

func writeSARIF(path, root string, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	relURI := func(filename string) string {
		if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return filename
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		r := sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relURI(d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		}
		for _, s := range d.Trace {
			r.RelatedLocations = append(r.RelatedLocations, sarifLocation{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relURI(s.Pos.Filename)},
					Region:           sarifRegion{StartLine: s.Pos.Line, StartColumn: s.Pos.Column},
				},
				Message: &sarifMessage{Text: s.Desc},
			})
		}
		results = append(results, r)
	}
	log := sarifLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "easyio-vet", Rules: rules}},
			Results: results,
		}},
	}
	b, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// filterPackages applies the CLI package patterns: "./..." (or no
// arguments) keeps everything; any other pattern keeps the packages
// whose import path holds it as whole "/"-separated segments, so
// "internal/core" keeps internal/core and the packages below it. A
// trailing "/" or "/..." is ignored. A pattern that matches no package
// is an error.
func filterPackages(pkgs []*analysis.Package, patterns []string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	segs := make([]string, len(patterns))
	for i, p := range patterns {
		if p == "./..." || p == "..." || p == "." {
			return pkgs, nil
		}
		p = strings.TrimPrefix(filepath.ToSlash(p), "./")
		segs[i] = "/" + strings.TrimSuffix(strings.TrimSuffix(p, "/..."), "/") + "/"
	}
	var out []*analysis.Package
	hit := make([]bool, len(patterns))
	for _, pkg := range pkgs {
		keep := false
		for i, seg := range segs {
			if strings.Contains("/"+pkg.Path+"/", seg) {
				hit[i], keep = true, true
			}
		}
		if keep {
			out = append(out, pkg)
		}
	}
	for i, p := range patterns {
		if !hit[i] {
			return nil, fmt.Errorf("package pattern %q matches no package", p)
		}
	}
	return out, nil
}

// inPackages keeps the findings located in the files of pkgs.
func inPackages(diags []analysis.Diagnostic, pkgs []*analysis.Package) []analysis.Diagnostic {
	files := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files[pkg.Fset.Position(f.Pos()).Filename] = true
		}
	}
	var out []analysis.Diagnostic
	for _, d := range diags {
		if files[d.Pos.Filename] {
			out = append(out, d)
		}
	}
	return out
}

// msSince is the wall-clock time since t in milliseconds, to the
// microsecond.
func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

// findModuleRoot walks up from the working directory to go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("easyio-vet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// fatal reports a non-findings failure (module load, bad flags, output
// I/O) with exit code 2, so `exit 1` always means "findings".
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "easyio-vet:", err)
	os.Exit(2)
}
