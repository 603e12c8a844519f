// Command easyio-vet runs the EasyIO determinism & locking analyzer
// suite (internal/analysis) over the whole module and exits nonzero on
// findings. CI and check.sh gate every change on it:
//
//	go run ./cmd/easyio-vet ./...          # whole module
//	go run ./cmd/easyio-vet internal/core  # one package (suffix match)
//	go run ./cmd/easyio-vet -list          # show the analyzers
//	go run ./cmd/easyio-vet -only lockbalance ./...
//	go run ./cmd/easyio-vet -json ./...    # findings as a JSON array
//	go run ./cmd/easyio-vet -parallel 8 -sarif vet.sarif ./...
//	go run ./cmd/easyio-vet -partition partition.json ./...
//
// Exit status: 0 clean, 1 findings, 2 load/type-check or I/O failure —
// CI can tell a regression from a broken build.
//
// Full-module runs are incremental by default: per-package findings are
// cached under .easyio-vet-cache/ keyed by a content hash of each
// package's interprocedural closure, so a warm rerun skips both the
// type checker and the analyzers for unchanged packages while printing
// byte-identical output. -nocache forces a cold run; package-filtered
// runs never use the cache (the filtered subgraph cannot hash the
// closure soundly).
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

// jsonFinding is the machine-readable shape of one diagnostic, stable for
// CI consumers (the GitHub problem matcher consumes the plain-text form;
// -json serves dashboards and editor integrations).
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Trace is the typestate protocol state trace leading to the finding
	// (creation site, each transition, the violating op), oldest first;
	// absent for non-typestate analyzers.
	Trace []jsonTraceStep `json:"trace,omitempty"`
}

// jsonTraceStep is one step of a typestate trace in -json output.
type jsonTraceStep struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
	Desc   string `json:"desc"`
}

// benchReport is the BENCH_vet.json shape: enough to track the vet's own
// wall-clock cost and cache effectiveness across commits.
type benchReport struct {
	WallMS      float64 `json:"wall_ms"`
	Packages    int     `json:"packages"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	Findings    int     `json:"findings"`
	Workers     int     `json:"workers"`
	// Analyzers breaks the run down per analyzer in milliseconds
	// (global analyzers include their BuildModule pass); near empty on a
	// fully warm run, where nothing is re-analyzed.
	Analyzers map[string]float64 `json:"analyzers"`
}

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array instead of file:line:col text")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent package analyses")
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	benchPath := flag.String("benchjson", "", "write runner telemetry (BENCH_vet.json shape) to this file")
	cacheDir := flag.String("cache-dir", "", "fact cache directory (default <module root>/.easyio-vet-cache)")
	cacheMax := flag.Int("cache-maxentries", 0, "cache entry cap with LRU eviction (0 = framework default, negative = unlimited)")
	noCache := flag.Bool("nocache", false, "disable the fact cache for this run")
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
	pkgs := filterPackages(all, flag.Args())

	// The closure hash is only sound over the full loaded graph; a
	// package-filtered run cannot see edits outside its slice, so it
	// always analyzes fresh.
	var cache *analysis.Cache
	if !*noCache && len(pkgs) == len(all) {
		dir := *cacheDir
		if dir == "" {
			dir = filepath.Join(root, ".easyio-vet-cache")
		}
		cache = analysis.OpenCache(dir)
		if *cacheMax != 0 {
			cache.WithMaxEntries(*cacheMax)
		}
	}

	// Fail loudly on type errors: analyzers degrade silently without
	// full type information, and the tree is expected to compile. The
	// check runs only when the cache actually misses — a warm run never
	// type-checks (entries are only written by type-clean runs).
	typeErrs := 0
	res := analysis.RunAnalyzersOpts(pkgs, analyzers, analysis.RunOptions{
		Workers: *parallel,
		Cache:   cache,
		EnsureTypes: func() {
			analysis.TypeCheck(all)
			for _, pkg := range all {
				for _, e := range pkg.TypeErrors {
					fmt.Fprintf(os.Stderr, "typecheck: %v\n", e)
					typeErrs++
				}
			}
		},
	})
	diags := res.Diags
	wallMS := float64(time.Since(start).Microseconds()) / 1000

	if *asJSON {
		out := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			f := jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}
			for _, s := range d.Trace {
				f.Trace = append(f.Trace, jsonTraceStep{
					File:   s.Pos.Filename,
					Line:   s.Pos.Line,
					Column: s.Pos.Column,
					Desc:   s.Desc,
				})
			}
			out = append(out, f)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, root, analyzers, diags); err != nil {
			fatal(err)
		}
	}
	if *partitionPath != "" {
		mod := res.Mod
		if mod == nil {
			// A fully warm run never type-checked; the report needs the
			// typed module view, so build it now (cache entries are only
			// written by type-clean runs, so this cannot fail loudly).
			analysis.TypeCheck(all)
			mod = analysis.BuildModule(pkgs)
		}
		if err := analysis.WritePartition(*partitionPath, analysis.BuildPartition(mod, root)); err != nil {
			fatal(err)
		}
	}
	if *benchPath != "" {
		rep := benchReport{
			WallMS:      wallMS,
			Packages:    res.Packages,
			CacheHits:   res.CacheHits,
			CacheMisses: res.CacheMisses,
			Findings:    len(diags),
			Workers:     *parallel,
			Analyzers:   res.AnalyzerMS,
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
// arguments) keeps everything; anything else matches import-path or
// directory suffixes.
func filterPackages(pkgs []*analysis.Package, patterns []string) []*analysis.Package {
	keepAll := len(patterns) == 0
	for _, p := range patterns {
		if p == "./..." || p == "..." || p == "." {
			keepAll = true
		}
	}
	if keepAll {
		return pkgs
	}
	var out []*analysis.Package
	for _, pkg := range pkgs {
		for _, p := range patterns {
			p = strings.TrimPrefix(filepath.ToSlash(p), "./")
			p = strings.TrimSuffix(p, "/...")
			if strings.HasSuffix(pkg.Path, p) || strings.Contains(pkg.Path+"/", "/"+p+"/") {
				out = append(out, pkg)
				break
			}
		}
	}
	return out
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
