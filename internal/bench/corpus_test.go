package bench

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/easyio-sim/easyio/internal/core"
	"github.com/easyio-sim/easyio/internal/fxmark"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/service"
	"github.com/easyio-sim/easyio/internal/sim"
)

// The golden-digest corpora pin the exact virtual-time behaviour of the
// stack. Each cell runs a short, fixed-seed experiment on a fresh
// instance and folds every observable into one FNV-64 digest; the digests
// are committed under testdata/, so any perf-model, kernel or serving
// refactor that shifts a single event surfaces as explicit digest churn
// in review. Three corpora share one harness:
//
//   - determinism (TestDigestCorpus): every system under test crossed with
//     a low-sharing write (DWAL) and a medium-sharing overwrite (DWOM)
//     FxMark window.
//   - serving (TestServeDigestCorpus): one cell per admission policy
//     crossed with each arrival process.
//   - fleet (TestFleetDigestCorpus): the router + node serving cell at two
//     adjacent seeds.
//
// Each corpus also has a seed-sensitivity test proving its digests
// discriminate. Regenerate all three golden files with:
//
//	go test ./internal/bench -run DigestCorpus -update-digests

var updateDigests = flag.Bool("update-digests", false, "rewrite the golden digest corpora")

// corpusSeed is the pinned seed of the committed corpora.
const corpusSeed = 42

// corpusCell is one cell of a corpus: its subtest name, its key in the
// golden file, and the experiment that computes its digest at a seed.
type corpusCell struct {
	name, key string
	digest    func(t *testing.T, seed uint64) uint64
}

// goldenCorpus is one committed digest file and the cells it pins.
type goldenCorpus struct {
	kind   string // header word: "# golden <kind> digests"
	prefix string // file name: testdata/<prefix>_<GOARCH>.golden
	cells  []corpusCell
}

// path keys the golden file by GOARCH: the digests fold float64
// arbitration arithmetic, which Go only guarantees to be reproducible on
// a fixed architecture (FMA contraction differs across targets).
func (c goldenCorpus) path() string {
	return filepath.Join("testdata", fmt.Sprintf("%s_%s.golden", c.prefix, runtime.GOARCH))
}

// checkGolden runs every cell of c as a subtest and compares its digest
// with the committed golden file, or rewrites the file under
// -update-digests.
func checkGolden(t *testing.T, c goldenCorpus) {
	got := map[string]uint64{}
	for _, cell := range c.cells {
		t.Run(cell.name, func(t *testing.T) {
			got[cell.key] = cell.digest(t, corpusSeed)
		})
	}

	if *updateDigests {
		var b strings.Builder
		fmt.Fprintf(&b, "# golden %s digests (seed %d, GOARCH %s)\n", c.kind, corpusSeed, runtime.GOARCH)
		fmt.Fprintf(&b, "# regenerate: go test ./internal/bench -run %s -update-digests\n", t.Name())
		for _, cell := range c.cells {
			fmt.Fprintf(&b, "%s %#016x\n", cell.key, got[cell.key])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", c.path())
		return
	}

	data, err := os.ReadFile(c.path())
	if err != nil {
		if os.IsNotExist(err) {
			t.Skipf("no %s golden corpus for GOARCH %s; generate one with -update-digests", c.kind, runtime.GOARCH)
		}
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		v, err := strconv.ParseUint(fields[1], 0, 64)
		if err != nil {
			t.Fatalf("malformed golden line %q: %v", line, err)
		}
		want[fields[0]] = v
	}
	for _, cell := range c.cells {
		w, ok := want[cell.key]
		if !ok {
			t.Errorf("%s: missing from golden corpus; regenerate with -update-digests", cell.key)
			continue
		}
		if got[cell.key] != w {
			t.Errorf("%s: digest %#016x, golden %#016x — %s behaviour changed; if intended, regenerate with -update-digests", cell.key, got[cell.key], w, c.kind)
		}
	}
}

// checkSeedSensitivity proves a corpus's digests have discriminating
// power: each cell must produce a different digest at a different seed.
func checkSeedSensitivity(t *testing.T, cells []corpusCell) {
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			a := cell.digest(t, corpusSeed)
			b := cell.digest(t, corpusSeed+1)
			if a == b {
				t.Fatalf("%s: seeds %d and %d produced identical digest %#x; no discriminating power", cell.key, corpusSeed, corpusSeed+1, a)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Determinism corpus: FxMark windows on every system under test.

func fxCorpusCell(name string, sys System, wl fxmark.Workload) corpusCell {
	return corpusCell{
		name:   name,
		key:    fmt.Sprintf("%s/%s/seed%d", sys, wl, corpusSeed),
		digest: func(t *testing.T, seed uint64) uint64 { return corpusDigest(t, sys, wl, seed) },
	}
}

// TestDigestCorpus checks every system crossed with DWAL and DWOM
// against the committed golden digests.
func TestDigestCorpus(t *testing.T) {
	c := goldenCorpus{kind: "determinism", prefix: "digests"}
	for _, sys := range AllSystems() {
		for _, wl := range []fxmark.Workload{fxmark.DWAL, fxmark.DWOM} {
			c.cells = append(c.cells, fxCorpusCell(fmt.Sprintf("%s-%s", sys, wl), sys, wl))
		}
	}
	checkGolden(t, c)
}

// TestCorpusSeedSensitivity: a different seed must diverge on the
// seeded-offset workload (DWOM) for every system.
func TestCorpusSeedSensitivity(t *testing.T) {
	var cells []corpusCell
	for _, sys := range AllSystems() {
		cells = append(cells, fxCorpusCell(string(sys), sys, fxmark.DWOM))
	}
	checkSeedSensitivity(t, cells)
}

// inoder is satisfied by every FS under test (they all embed *nova.FS);
// it exposes the inode table for the layout witness.
type inoder interface {
	Inode(num uint32) *nova.Inode
}

// corpusDigest runs one FxMark cell and folds its counters, clock, event
// sequence, latency distribution, per-core dispatch counts and resulting
// file layout into a digest.
func corpusDigest(t *testing.T, sys System, wl fxmark.Workload, seed uint64) uint64 {
	t.Helper()
	const cores = 4
	inst, err := NewInstance(sys, cores, InstanceOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	res, err := fxmark.Run(inst.Eng, inst.RT, inst.FS, fxmark.Config{
		Workload: wl,
		Cores:    cores,
		Uthreads: cores * inst.UtPerCore,
		IOSize:   16 << 10,
		Seed:     seed,
		Warmup:   sim.Millisecond,
		Measure:  3 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	write := func(label string, v int64) {
		fmt.Fprintf(h, "%s=%d;", label, v)
	}
	write("ops", res.Ops)
	write("bytes", res.Bytes)
	write("now", int64(inst.Eng.Now()))
	write("seq", int64(inst.Eng.Sequence()))
	write("lat.count", int64(res.Lat.Count()))
	write("lat.mean", int64(res.Lat.Mean()))
	write("lat.p50", int64(res.Lat.P50()))
	write("lat.p99", int64(res.Lat.P99()))
	write("lat.max", int64(res.Lat.Max()))
	for i := 0; i < inst.RT.NumCores(); i++ {
		write(fmt.Sprintf("core%d.switches", i), inst.RT.Core(i).Switches())
	}
	// Layout witness: the page->block mapping (and log tail) of every
	// file the workload touched is a function of the full operation
	// stream, including seeded offsets; the aggregate counters above are
	// offset-invariant under this perf model.
	ing, ok := inst.FS.(inoder)
	if !ok {
		t.Fatalf("%s: FS does not expose Inode()", sys)
	}
	paths := []string{"/fxmark-shared"}
	if wl == fxmark.DWAL {
		paths = nil
		for i := 0; i < cores*inst.UtPerCore; i++ {
			paths = append(paths, fmt.Sprintf("/fxmark-%d", i))
		}
	}
	for _, path := range paths {
		st, err := inst.FS.Stat(nil, path)
		if err != nil {
			t.Fatalf("%s: stat %s: %v", sys, path, err)
		}
		ino := ing.Inode(st.Ino)
		write(path+".size", st.Size)
		write(path+".tail", ino.LogTail())
		for pg := int64(0); pg*nova.BlockSize < st.Size; pg++ {
			write(fmt.Sprintf("%s.pg%d", path, pg), ino.BlockFor(pg))
		}
	}
	if res.Ops == 0 {
		t.Fatalf("%s/%s: measure window completed zero operations; digest is vacuous", sys, wl)
	}
	return h.Sum64()
}

// ---------------------------------------------------------------------------
// Serving corpus: any change to arrival sampling, admission decisions,
// dispatch order or the filesystem's virtual timing surfaces here.

func serveCorpusCell(name string, pol service.PolicyKind, arr service.ArrivalKind) corpusCell {
	return corpusCell{
		name:   name,
		key:    fmt.Sprintf("serve/%s/%s/seed%d", pol, arr, corpusSeed),
		digest: func(t *testing.T, seed uint64) uint64 { return serveCorpusDigest(t, pol, arr, seed) },
	}
}

var serveCorpusArrivals = []service.ArrivalKind{service.ArrivalPoisson, service.ArrivalBurst, service.ArrivalDiurnal}

// TestServeDigestCorpus checks every admission policy crossed with every
// arrival process against the committed golden digests.
func TestServeDigestCorpus(t *testing.T) {
	c := goldenCorpus{kind: "serving", prefix: "serve_digests"}
	for _, pol := range []service.PolicyKind{
		service.PolicyNone, service.PolicyQueueCap, service.PolicyEWMA, service.PolicyPriority,
	} {
		for _, arr := range serveCorpusArrivals {
			c.cells = append(c.cells, serveCorpusCell(fmt.Sprintf("%s-%s", pol, arr), pol, arr))
		}
	}
	checkGolden(t, c)
}

// TestServeCorpusSeedSensitivity: each arrival process must produce
// seed-dependent digests.
func TestServeCorpusSeedSensitivity(t *testing.T) {
	var cells []corpusCell
	for _, arr := range serveCorpusArrivals {
		cells = append(cells, serveCorpusCell(string(arr), service.PolicyEWMA, arr))
	}
	checkSeedSensitivity(t, cells)
}

// serveCorpusDigest runs one overloaded two-tenant serving cell: a
// latency-critical Poisson tenant plus a bulk tenant driven by the
// arrival process under test, governed by the policy under test. It folds
// the full per-tenant accounting (counters and complete latency
// histograms) plus the engine clock and event sequence into a digest.
func serveCorpusDigest(t *testing.T, pol service.PolicyKind, arr service.ArrivalKind, seed uint64) uint64 {
	t.Helper()
	const cores = 2
	inst, err := NewInstance(SysEasyIO, cores, InstanceOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	res, err := service.Run(inst.Eng, inst.RT, inst.CoreFS, service.Config{
		Cores: cores,
		Tenants: []service.TenantSpec{
			{
				Name:    "web",
				Class:   core.ClassL,
				SLO:     200 * sim.Microsecond,
				Arrival: service.ArrivalSpec{Kind: service.ArrivalPoisson, Rate: 40_000},
				Mix:     service.Mix{Name: "point-read", ReadSize: 4 << 10, Compute: sim.Microsecond},
			},
			{
				Name:     "bulk",
				Class:    core.ClassB,
				Priority: 1,
				Arrival:  service.ArrivalSpec{Kind: arr, Rate: 5_000},
				Mix:      service.Mix{Name: "ingest", WriteSize: 1 << 20, WriteEvery: 1},
			},
		},
		Policy:  service.PolicySpec{Kind: pol, QueueCap: 8},
		Warmup:  sim.Millisecond,
		Measure: 4 * sim.Millisecond,
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants[0].Completed == 0 {
		t.Fatalf("%s/%s: zero completions; digest is vacuous", pol, arr)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "res=%#016x;now=%d;seq=%d;", res.Digest(), int64(inst.Eng.Now()), int64(inst.Eng.Sequence()))
	return h.Sum64()
}

// ---------------------------------------------------------------------------
// Fleet corpus: any change to cross-domain delivery, link latency, or a
// node's serving path surfaces here.

// fleetCorpusCell pins the fleet cell at corpusSeed+offset.
func fleetCorpusCell(offset uint64) corpusCell {
	name := fmt.Sprintf("seed%d", corpusSeed+offset)
	return corpusCell{
		name:   name,
		key:    "fleet/3ms/" + name,
		digest: func(t *testing.T, seed uint64) uint64 { return fleetCorpusDigest(t, seed+offset) },
	}
}

// TestFleetDigestCorpus checks the fleet cell at seeds 42 and 43 against
// the committed golden digests.
func TestFleetDigestCorpus(t *testing.T) {
	checkGolden(t, goldenCorpus{kind: "fleet", prefix: "fleet_digests",
		cells: []corpusCell{fleetCorpusCell(0), fleetCorpusCell(1)}})
}

// TestFleetSeedSensitivity: the fleet digest must propagate a seed change
// through the router and every node, not average it away.
func TestFleetSeedSensitivity(t *testing.T) {
	checkSeedSensitivity(t, []corpusCell{fleetCorpusCell(0)})
}

// TestFleetConservation: every measured request the router sends across
// the link comes back as exactly one ack or one shed notice before the run
// ends, so the fleet loses and duplicates nothing in either direction.
func TestFleetConservation(t *testing.T) {
	for _, seed := range []uint64{corpusSeed, corpusSeed + 1} {
		cell := fleetCell(3*sim.Millisecond, seed)
		if cell.Acked == 0 {
			t.Errorf("seed %d: fleet cell acked zero requests", seed)
		}
		if cell.Sent != cell.Acked+cell.Shed {
			t.Errorf("seed %d: sent %d != acked %d + shed %d", seed, cell.Sent, cell.Acked, cell.Shed)
		}
	}
}

// fleetCorpusDigest runs one 3 ms fleet cell and returns its digest:
// router counters, the RTT histogram, every node's service result, and
// the shared engine's clock and event sequence.
func fleetCorpusDigest(t *testing.T, seed uint64) uint64 {
	t.Helper()
	cell := fleetCell(3*sim.Millisecond, seed)
	if cell.Acked == 0 {
		t.Fatal("fleet cell acked zero requests; digest is vacuous")
	}
	d, err := strconv.ParseUint(cell.Digest, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
