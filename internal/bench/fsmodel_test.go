package bench

import (
	"bytes"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/nova"
	"github.com/easyio-sim/easyio/internal/rng"
)

// FuzzFSModel is the differential oracle: every op sequence runs on all
// five systems, each against its own refFS, in one uthread on core 0 (a
// nil task would skip the DMA, delegate and offload paths). After every
// op it compares the result, the error, every pool path's Stat
// (Kind/Size/Nlink) and every open handle's size; at the end it walks the
// tree with Readdir, reads every file back through the system's own
// ReadAt and checks that two paths share an inode exactly when they do in
// the model. A sequence whose first divergence is a pinned one
// (expectedDivergences) is skipped.
//
//	go test -run '^$' -fuzz '^FuzzFSModel$' -fuzztime 60s ./internal/bench
func FuzzFSModel(f *testing.F) {
	for _, s := range fsSeeds {
		f.Add(encodeOps(s.ops))
	}
	for seed := uint64(1); seed <= 25; seed++ {
		f.Add(encodeOps(genOps(rng.New(seed))))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ops := decodeOps(b)
		var pinned []string
		for _, sys := range fsSystems {
			d := runFS(sys, ops)
			if d == nil {
				continue
			}
			row := d.expected()
			if row == "" {
				t.Fatalf("%s: %v", sys, d)
			}
			pinned = append(pinned, fmt.Sprintf("%s: %v [%s]", sys, d, row))
		}
		if pinned != nil {
			t.Skip(strings.Join(pinned, "\n"))
		}
	})
}

// fsSeeds is the seed table: one row per hand-written roundtrip test the
// model replaced, each checking every assertion that test made, on all
// five systems. Each runs as TestFSModelSeeds/<name> and seeds the fuzzer.
// Slot 0 holds /a and slot 1 /d/b from the prelude.
var fsSeeds = []struct {
	name string
	ops  []fsOp
}{
	{"CreateOpenStat", []fsOp{
		{kind: opCreate, slot: 2, path: "/b"},
		{kind: opCreate, slot: 3, path: "/b"},
		{kind: opOpen, slot: 3, path: "/b"},
		{kind: opOpen, slot: 3, path: "/e"},
		{kind: opStat, path: "/b"},
	}},
	{"WriteReadRoundtrip", roundtrip(10000)},
	{"UnalignedOverwrite", []fsOp{
		{kind: opWrite, off: 0, size: 3 * nova.BlockSize, seed: 1},
		{kind: opWrite, off: nova.BlockSize - 7, size: 21, seed: 2},
		{kind: opRead, off: 0, size: 3 * nova.BlockSize},
	}},
	{"AppendGrowsFile", []fsOp{
		{kind: opAppend, size: 10, seed: 3}, {kind: opAppend, size: 10, seed: 3},
		{kind: opAppend, size: 10, seed: 3}, {kind: opAppend, size: 10, seed: 3},
		{kind: opAppend, size: 10, seed: 3}, {kind: opAppend, size: 10, seed: 3},
		{kind: opAppend, size: 10, seed: 3}, {kind: opAppend, size: 10, seed: 3},
		{kind: opAppend, size: 10, seed: 3}, {kind: opAppend, size: 10, seed: 3},
		{kind: opRead, off: 0, size: 100},
	}},
	{"ReadPastEOFAndHoles", []fsOp{
		{kind: opWrite, off: 2 * nova.BlockSize, size: 4, seed: 4},
		{kind: opRead, off: 0, size: 2*nova.BlockSize + 4},
		{kind: opRead, off: 2*nova.BlockSize + 2, size: 100},
		{kind: opRead, off: 2*nova.BlockSize + 14, size: 10},
	}},
	{"MkdirAndNesting", []fsOp{
		{kind: opMkdir, path: "/d/e"},
		{kind: opCreate, slot: 2, path: "/d/e/a"},
		{kind: opWrite, slot: 2, off: 0, size: 6, seed: 5},
	}},
	{"RenameSameDir", []fsOp{
		{kind: opWrite, off: 0, size: 7, seed: 6},
		{kind: opRename, path: "/a", to: "/e"},
		{kind: opOpen, slot: 2, path: "/a"},
		{kind: opOpen, slot: 2, path: "/e"},
		{kind: opRead, slot: 2, off: 0, size: 7},
	}},
	{"HardLink", []fsOp{
		{kind: opWrite, off: 0, size: 6, seed: 7},
		{kind: opLink, path: "/a", to: "/b"},
		{kind: opUnlink, path: "/a"},
		{kind: opOpen, slot: 2, path: "/b"},
		{kind: opRead, slot: 2, off: 0, size: 6},
		{kind: opUnlink, path: "/b"},
		{kind: opOpen, slot: 3, path: "/b"},
	}},
	{"PropertyRandomWritesMatchShadow", shadowOps(rng.New(1))},
	{"EasyIOWriteReadRoundtrip", roundtrip(100_000)},
	{"EasyIOUnalignedWrite", []fsOp{
		{kind: opWrite, off: 0, size: 3 * nova.BlockSize, seed: 8},
		{kind: opWrite, off: 1000, size: 10_000, seed: 9},
		{kind: opRead, off: 0, size: 3 * nova.BlockSize},
	}},
	{"NaiveModeFunctional", roundtrip(64 << 10)},
	{"OdinfsRoundtrip", roundtrip(300_000)},
	{"SyncDMAMoverRoundtrip", roundtrip(64 << 10)},
}

// roundtrip writes n bytes to /a and reads them back.
func roundtrip(n int) []fsOp {
	return []fsOp{
		{kind: opWrite, off: 0, size: n, seed: byte(n)},
		{kind: opRead, off: 0, size: n},
	}
}

// shadowOps draws 40 writes, appends and shrinking truncates on /a, each
// near the current end of file.
func shadowOps(g *rng.Rand) []fsOp {
	var ops []fsOp
	size := int64(0)
	for i := 0; i < 40; i++ {
		switch g.Intn(3) {
		case 0:
			op := fsOp{kind: opWrite, off: g.Int63n(size + nova.BlockSize), size: 1 + g.Intn(3*nova.BlockSize), seed: byte(i)}
			size = max(size, op.off+int64(op.size))
			ops = append(ops, op)
		case 1:
			op := fsOp{kind: opAppend, size: 1 + g.Intn(nova.BlockSize), seed: byte(i)}
			size += int64(op.size)
			ops = append(ops, op)
		case 2:
			if size > 0 {
				size = g.Int63n(size)
				ops = append(ops, fsOp{kind: opTruncate, off: size})
			}
		}
	}
	return ops
}

// TestFSModelSeeds runs each seed row on all five systems; none may
// diverge, pinned or not. It also checks that the row survives the fuzz
// encoding unchanged.
func TestFSModelSeeds(t *testing.T) {
	for _, s := range fsSeeds {
		t.Run(s.name, func(t *testing.T) {
			if got := decodeOps(encodeOps(s.ops)); !reflect.DeepEqual(got, s.ops) {
				t.Fatalf("encoding round trip: %v, want %v", got, s.ops)
			}
			for _, sys := range fsSystems {
				if d := runFS(sys, s.ops); d != nil {
					t.Errorf("%s: %v", sys, d)
				}
			}
		})
	}
}

// expectedDivergences pins the three places nova departs from POSIX
// (ROADMAP finding 3, fixed by item 3). Each row names its corpus file
// under testdata/fuzz/FuzzFSModel, the op (prelude included) where that
// file first diverges, and a predicate on a first divergence.
var expectedDivergences = []struct {
	name  string
	op    int
	match func(d *divergence) bool
}{
	// nova replaces the file with the directory and returns nil.
	{"rename-dir-onto-file", 3, func(d *divergence) bool { return d.dep == renameDirOntoFile }},
	// nova moves /d into its own subtree: it returns nil and /d is gone.
	{"rename-into-subtree", 3, func(d *divergence) bool { return d.dep == renameIntoSubtree }},
	// nova frees a file's inode, blocks and log at its last unlink, while
	// a handle is still open on it. Run, the write through that handle
	// would panic with a double free; runFS stops at the freed inode.
	{"handle-after-unlink", 5, func(d *divergence) bool { return d.dep == useAfterUnlink }},
}

// TestExpectedDivergences requires each pinned corpus file to diverge,
// on all five systems, at the op its row names and as its row says: a
// silent fix or a new failure shows up here.
func TestExpectedDivergences(t *testing.T) {
	for _, row := range expectedDivergences {
		t.Run(row.name, func(t *testing.T) {
			ops := decodeOps(readCorpusFile(t, row.name))
			for _, sys := range fsSystems {
				d := runFS(sys, ops)
				if d == nil || d.op != row.op || !row.match(d) {
					t.Errorf("%s: divergence %v; want one at op %d matching %s", sys, d, row.op, row.name)
				}
			}
		})
	}
}

// readCorpusFile decodes a one-[]byte "go test fuzz v1" corpus file.
func readCorpusFile(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzFSModel", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// ---------------------------------------------------------------------------
// Operations and their fuzz encoding.

type opKind uint8

const (
	opWrite opKind = iota
	opRead
	opAppend
	opTruncate
	opFsync
	opOpen
	opCreate
	opClose
	opUnlink
	opRename
	opLink
	opMkdir
	opStat
)

// opSpecs names each kind and lists its arguments in encoding order:
// s slot, p path, t second path, o offset (a truncate's size), z size,
// d payload seed.
var opSpecs = [...]struct{ name, args string }{
	opWrite:    {"write", "sozd"},
	opRead:     {"read", "soz"},
	opAppend:   {"append", "szd"},
	opTruncate: {"truncate", "so"},
	opFsync:    {"fsync", "s"},
	opOpen:     {"open", "sp"},
	opCreate:   {"create", "sp"},
	opClose:    {"close", "s"},
	opUnlink:   {"unlink", "p"},
	opRename:   {"rename", "pt"},
	opLink:     {"link", "pt"},
	opMkdir:    {"mkdir", "p"},
	opStat:     {"stat", "p"},
}

// kindTable weights the draw toward data ops: a kind byte indexes it
// modulo its length.
var kindTable = []opKind{
	opWrite, opWrite, opWrite, opWrite, opWrite, opWrite, opWrite, opWrite,
	opRead, opRead, opRead, opRead, opRead, opRead,
	opAppend, opAppend, opAppend, opTruncate, opTruncate, opFsync,
	opOpen, opOpen, opCreate, opCreate, opClose,
	opUnlink, opUnlink, opRename, opRename, opRename, opLink, opMkdir, opStat,
}

// pathTable is the path pool: the prelude's tree, names to create, a
// path through a file, the root and a name longer than nova.MaxNameLen.
// A path byte indexes it modulo its length; the repeats weight the draw
// toward directories, so a directory's rename into its own subtree or
// onto a file comes up often.
var pathTable = []string{
	"/a", "/b", "/d", "/d", "/d", "/d/a", "/d/b", "/d/e", "/d/e", "/d/e/a", "/e",
	"/a/x", "/", "/" + strings.Repeat("n", nova.MaxNameLen+1),
}

// fsPaths is the pool without repeats.
var fsPaths = slices.Compact(slices.Clone(pathTable))

// fsPrelude starts every sequence: one directory and two open files.
var fsPrelude = []fsOp{
	{kind: opMkdir, path: "/d"},
	{kind: opCreate, slot: 0, path: "/a"},
	{kind: opCreate, slot: 1, path: "/d/b"},
}

const (
	fsSlots   = 4         // handle slots
	maxFSOps  = 64        // decoded ops per sequence
	maxFSOff  = 512 << 10 // offsets and truncate sizes stay below
	maxFSSize = 320 << 10 // I/O sizes stay at or below
)

// fsOp is one filesystem call. Handle ops name a slot; on an empty slot
// they do nothing. Open and Create close the slot's handle first.
type fsOp struct {
	kind     opKind
	slot     int
	path, to string
	off      int64
	size     int
	seed     byte
}

func (op fsOp) String() string {
	s := opSpecs[op.kind]
	var b strings.Builder
	b.WriteString(s.name)
	for _, a := range s.args {
		switch a {
		case 's':
			fmt.Fprintf(&b, " #%d", op.slot)
		case 'p':
			fmt.Fprintf(&b, " %.12s", op.path)
		case 't':
			fmt.Fprintf(&b, " -> %.12s", op.to)
		case 'o':
			fmt.Fprintf(&b, " @%d", op.off)
		case 'z':
			fmt.Fprintf(&b, " n=%d", op.size)
		}
	}
	return b.String()
}

// decodeOps turns any byte string into at most maxFSOps ops. An offset
// or size is three bytes: the top two bits pick a class (offsets:
// page-aligned, within 16 bytes of a page boundary, or exact; sizes: up
// to 64 bytes, within 8 bytes of nova.MinDMASize, up to 64 KB, or exact
// up to maxFSSize), so every class is as likely as the next.
func decodeOps(b []byte) []fsOp {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	num := func() (class, v int) {
		b0, b1, b2 := next(), next(), next()
		return int(b0 >> 6), int(b0&0x3f)<<16 | int(b1)<<8 | int(b2)
	}
	var ops []fsOp
	for len(b) > 0 && len(ops) < maxFSOps {
		op := fsOp{kind: kindTable[int(next())%len(kindTable)]}
		for _, a := range opSpecs[op.kind].args {
			switch a {
			case 's':
				op.slot = int(next()) % fsSlots
			case 'p':
				op.path = pathTable[int(next())%len(pathTable)]
			case 't':
				op.to = pathTable[int(next())%len(pathTable)]
			case 'o':
				switch class, v := num(); class {
				case 0:
					op.off = int64(v%64) * nova.BlockSize
				case 1:
					op.off = max(0, int64(v%64)*nova.BlockSize+int64((v>>6)%33)-16)
				default:
					op.off = int64(v % maxFSOff)
				}
			case 'z':
				switch class, v := num(); class {
				case 0:
					op.size = v % 65
				case 1:
					op.size = nova.MinDMASize - 8 + v%17
				case 2:
					op.size = v % (64<<10 + 1)
				default:
					op.size = v % (maxFSSize + 1)
				}
			case 'd':
				op.seed = next()
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// encodeOps inverts decodeOps, writing offsets and sizes in their exact
// class.
func encodeOps(ops []fsOp) []byte {
	var b []byte
	exact := func(class byte, v int) {
		b = append(b, class<<6|byte(v>>16), byte(v>>8), byte(v))
	}
	for _, op := range ops {
		b = append(b, byte(slices.Index(kindTable, op.kind)))
		for _, a := range opSpecs[op.kind].args {
			switch a {
			case 's':
				b = append(b, byte(op.slot))
			case 'p':
				b = append(b, byte(slices.Index(pathTable, op.path)))
			case 't':
				b = append(b, byte(slices.Index(pathTable, op.to)))
			case 'o':
				exact(2, int(op.off))
			case 'z':
				exact(3, op.size)
			case 'd':
				b = append(b, op.seed)
			}
		}
	}
	return b
}

// genOps draws a 40-op sequence: kinds from kindTable, offsets around
// page boundaries, sizes on both sides of nova.MinDMASize up to 300 KB.
func genOps(g *rng.Rand) []fsOp {
	ops := make([]fsOp, 40)
	for i := range ops {
		op := fsOp{
			kind: kindTable[g.Intn(len(kindTable))],
			slot: g.Intn(fsSlots),
			seed: byte(g.Intn(256)),
		}
		op.off = int64(g.Intn(24)) * nova.BlockSize
		switch g.Intn(4) {
		case 0:
			op.off--
		case 1:
			op.off++
		case 2:
			op.off += int64(g.Intn(nova.BlockSize))
		}
		op.off = max(op.off, 0)
		switch g.Intn(4) {
		case 0:
			op.size = 1 + g.Intn(64)
		case 1:
			op.size = nova.MinDMASize - 1 + g.Intn(3)
		case 2:
			op.size = nova.MinDMASize + 1 + g.Intn(64<<10)
		default:
			op.size = 64<<10 + g.Intn(236<<10)
		}
		op.path = pathTable[g.Intn(len(pathTable))]
		op.to = pathTable[g.Intn(len(pathTable))]
		// Keep only the fields the kind encodes, so the sequence
		// survives the encoding unchanged.
		ops[i] = decodeOps(encodeOps([]fsOp{op}))[0]
	}
	return ops
}

// payloadPool backs every payload: random bytes drawn once.
var payloadPool = func() []byte {
	b := make([]byte, 2*maxFSSize)
	rng.New(1).Bytes(b)
	return b
}()

// payloads returns each write's and append's data: a read-only window
// into payloadPool chosen by op index and seed.
func payloads(ops []fsOp) [][]byte {
	data := make([][]byte, len(ops))
	for i, op := range ops {
		if op.kind == opWrite || op.kind == opAppend {
			at := (i*7919 + int(op.seed)*104729) % (len(payloadPool) - op.size + 1)
			data[i] = payloadPool[at : at+op.size : at+op.size]
		}
	}
	return data
}

// ---------------------------------------------------------------------------
// Running a sequence on one system.

// fsSystems are the five systems the model checks.
var fsSystems = append(AllSystems(), SysNaive)

// divergence is the first place a system and the model disagree.
type divergence struct {
	op   int // index into the run, prelude included; one past the last op is the final tree check
	desc string
	msg  string
	dep  departure // the model's departure at that op
}

func (d *divergence) String() string { return fmt.Sprintf("op %d (%s): %s", d.op, d.desc, d.msg) }

// expected returns the name of the pinned divergence d matches, or "".
func (d *divergence) expected() string {
	for _, row := range expectedDivergences {
		if row.match(d) {
			return row.name
		}
	}
	return ""
}

// fsRun pairs a system's open handles with the model's, slot by slot.
type fsRun struct {
	fs    fsapi.FileSystem
	t     *caladan.Task
	m     *refFS
	files [fsSlots]*nova.File
	hs    [fsSlots]int
}

// runFS runs the prelude and ops on a fresh functional instance of sys
// and returns the first divergence from the model, or nil. A panic, on
// the uthread or in an engine callback, is the divergence of the op in
// progress.
func runFS(sys System, ops []fsOp) (d *divergence) {
	ops = append(slices.Clip(fsPrelude), ops...)
	data := payloads(ops)
	inst, err := NewInstance(sys, 1, InstanceOptions{Functional: true, Seed: 1})
	if err != nil {
		return &divergence{op: -1, msg: err.Error()}
	}
	r := &fsRun{fs: inst.FS, m: newRefFS()}
	cur, finished := 0, false
	fail := func(msg string) {
		d = &divergence{op: cur, desc: "final tree", msg: msg, dep: r.m.dep}
		if cur < len(ops) {
			d.desc = ops[cur].String()
		}
	}
	inst.RT.Spawn(0, "fsmodel", func(t *caladan.Task) {
		r.t = t
		for cur = range ops {
			msg := r.step(ops[cur], data[cur])
			if msg == "" {
				msg = r.check()
			}
			if msg != "" {
				fail(msg)
				return
			}
		}
		cur = len(ops)
		if msg := r.final(); msg != "" {
			fail(msg)
			return
		}
		for slot := range r.files {
			r.close(slot)
		}
		finished = true
	})
	func() {
		defer func() {
			if p := recover(); p != nil {
				fail(fmt.Sprint("panic: ", p))
			}
		}()
		inst.Eng.Run()
	}()
	inst.Close()
	if d == nil && !finished {
		fail("the uthread never finished")
	}
	return d
}

// step runs op on the model, then on the system, and describes any
// difference. The model goes first so a system panic finds its
// departure already set.
func (r *fsRun) step(op fsOp, data []byte) string {
	m, fs, t := r.m, r.fs, r.t
	m.dep = sameAsNova
	switch op.kind {
	case opOpen, opCreate:
		r.close(op.slot)
		open, mopen := fs.Open, m.Open
		if op.kind == opCreate {
			open, mopen = fs.Create, m.Create
		}
		h, werr := mopen(op.path)
		f, err := open(t, op.path)
		if err != werr {
			if f != nil {
				f.Close()
			}
			return errDiff(err, werr)
		}
		if f != nil {
			r.files[op.slot], r.hs[op.slot] = f, h
		}
		return ""
	case opClose:
		r.close(op.slot)
		return ""
	case opUnlink:
		werr := m.Unlink(op.path)
		return errDiff(fs.Unlink(t, op.path), werr)
	case opMkdir:
		werr := m.Mkdir(op.path)
		return errDiff(fs.Mkdir(t, op.path), werr)
	case opRename:
		werr := m.Rename(op.path, op.to)
		return errDiff(fs.Rename(t, op.path, op.to), werr)
	case opLink:
		werr := m.Link(op.path, op.to)
		return errDiff(fs.Link(t, op.path, op.to), werr)
	case opStat:
		want, werr := m.Stat(op.path)
		got, err := fs.Stat(t, op.path)
		return statDiff(op.path, got, err, want, werr)
	}
	f, h := r.files[op.slot], r.hs[op.slot]
	if f == nil {
		return ""
	}
	// A handle keeps its inode alive. Once the system has freed it,
	// whatever the op did next would be use-after-free, so stop here.
	if r.fs.(interface{ Inode(uint32) *nova.Inode }).Inode(f.Inode().Num) != f.Inode() {
		m.file(h)
		return fmt.Sprintf("the system freed the inode of handle #%d", op.slot)
	}
	switch op.kind {
	case opWrite:
		wn, werr := m.WriteAt(h, op.off, data)
		n, err := fs.WriteAt(t, f, op.off, data)
		return nDiff(n, err, wn, werr)
	case opAppend:
		wn, werr := m.Append(h, data)
		n, err := fs.Append(t, f, data)
		return nDiff(n, err, wn, werr)
	case opRead:
		want := make([]byte, op.size)
		wn, werr := m.ReadAt(h, op.off, want)
		got := make([]byte, op.size)
		n, err := fs.ReadAt(t, f, op.off, got)
		if s := nDiff(n, err, wn, werr); s != "" {
			return s
		}
		return bytesDiff(got[:n], want[:wn])
	case opTruncate:
		werr := m.Truncate(h, op.off)
		return errDiff(fs.Truncate(t, f, op.off), werr)
	case opFsync:
		werr := m.Fsync(h)
		return errDiff(fs.Fsync(t, f), werr)
	}
	panic("unknown op kind")
}

func (r *fsRun) close(slot int) {
	if f := r.files[slot]; f != nil {
		f.Close()
		r.m.Close(r.hs[slot])
		r.files[slot] = nil
	}
}

// check compares every pool path's Stat and every open handle's size.
// Its Stats take a nil task, so they charge no virtual time.
func (r *fsRun) check() string {
	for _, p := range fsPaths {
		want, werr := r.m.Stat(p)
		got, err := r.fs.Stat(nil, p)
		if s := statDiff(p, got, err, want, werr); s != "" {
			return s
		}
	}
	for slot, f := range r.files {
		if f == nil {
			continue
		}
		if got, want := f.Size(), int64(len(r.m.handles[r.hs[slot]].data)); got != want {
			return fmt.Sprintf("handle #%d size %d, model %d", slot, got, want)
		}
	}
	return ""
}

// final walks the tree with Readdir, reads every file back through the
// system's ReadAt, and checks link identity.
func (r *fsRun) final() string {
	rd := r.fs.(interface {
		Readdir(*caladan.Task, string) ([]string, error)
	})
	type seen struct {
		path    string
		ino, id uint32
	}
	var all []seen
	var walk func(dir string) string
	walk = func(dir string) string {
		want, werr := r.m.Readdir(dir)
		got, err := rd.Readdir(r.t, dir)
		if err != werr || !slices.Equal(got, want) {
			return fmt.Sprintf("readdir %s = %q, %v; model %q, %v", dir, got, err, want, werr)
		}
		for _, name := range got {
			p := path.Join(dir, name)
			mst, merr := r.m.Stat(p)
			st, err := r.fs.Stat(r.t, p)
			if s := statDiff(p, st, err, mst, merr); s != "" {
				return s
			}
			all = append(all, seen{p, st.Ino, mst.Ino})
			s := ""
			if st.Kind == nova.KindDir {
				s = walk(p)
			} else {
				s = r.readBack(p, st.Size)
			}
			if s != "" {
				return s
			}
		}
		return ""
	}
	if s := walk("/"); s != "" {
		return s
	}
	for i, a := range all {
		for _, b := range all[i+1:] {
			if (a.ino == b.ino) != (a.id == b.id) {
				return fmt.Sprintf("%s and %s: inodes %d and %d, model %d and %d", a.path, b.path, a.ino, b.ino, a.id, b.id)
			}
		}
	}
	return ""
}

// readBack reads the whole file at p through a fresh handle on each side.
func (r *fsRun) readBack(p string, size int64) string {
	h, werr := r.m.Open(p)
	f, err := r.fs.Open(r.t, p)
	if err != nil || werr != nil {
		return p + ": open " + errDiff(err, werr)
	}
	defer f.Close()
	defer r.m.Close(h)
	want := make([]byte, size)
	wn, _ := r.m.ReadAt(h, 0, want)
	got := make([]byte, size)
	n, err := r.fs.ReadAt(r.t, f, 0, got)
	if s := nDiff(n, err, wn, nil); s != "" {
		return p + ": " + s
	}
	if s := bytesDiff(got, want); s != "" {
		return p + ": " + s
	}
	return ""
}

func errDiff(err, want error) string {
	if err != want {
		return fmt.Sprintf("error %v, model %v", err, want)
	}
	return ""
}

func nDiff(n int, err error, wn int, werr error) string {
	if n != wn || err != werr {
		return fmt.Sprintf("got %d, %v; model %d, %v", n, err, wn, werr)
	}
	return ""
}

func statDiff(p string, got nova.Stat, err error, want nova.Stat, werr error) string {
	if err != werr {
		return fmt.Sprintf("stat %.12s: error %v, model %v", p, err, werr)
	}
	if got.Kind != want.Kind || got.Size != want.Size || got.Nlink != want.Nlink {
		return fmt.Sprintf("stat %.12s: kind %d size %d nlink %d; model %d, %d, %d",
			p, got.Kind, got.Size, got.Nlink, want.Kind, want.Size, want.Nlink)
	}
	return ""
}

func bytesDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("%d bytes differ from the model's, the first at byte %d", len(got), i)
}
