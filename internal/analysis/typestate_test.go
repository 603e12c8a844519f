package analysis

import (
	"strings"
	"testing"
)

// The typestate fixtures mirror the real subjects by shape: each fixture
// package takes the import-path suffix the protocol's constructor keys
// on (internal/service, internal/sim, internal/core) and declares the
// receiver types its method matchers key on. The engine matches ops
// structurally, so these compile without importing the real packages —
// exactly like deviceFixture for the persistence automaton.

const svcFixture = `package service
type Server struct{}
func New() *Server { return &Server{} }
func (s *Server) StartArrivals() {}
func (s *Server) StartManager()  {}
func (s *Server) Inject()        {}
func (s *Server) End()           {}
func (s *Server) Finish()        {}
`

func TestSvcLifecycle(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"full legal lifecycle accepted", svcFixture + `
func Ok() {
	s := New()
	s.StartArrivals()
	s.StartManager()
	s.Inject()
	s.End()
	s.Finish()
}
`, 0},
		{"manager-only lifecycle accepted (arrivals optional)", svcFixture + `
func Ok() {
	s := New()
	s.StartManager()
	s.Inject()
	s.Finish()
}
`, 0},
		{"inject after End flagged", svcFixture + `
func Bad() {
	s := New()
	s.StartManager()
	s.End()
	s.Inject()
}
`, 1},
		{"inject before StartManager flagged", svcFixture + `
func Bad() {
	s := New()
	s.Inject()
}
`, 1},
		{"arrivals after manager flagged", svcFixture + `
func Bad() {
	s := New()
	s.StartManager()
	s.StartArrivals()
}
`, 1},
		{"double Finish flagged", svcFixture + `
func Bad() {
	s := New()
	s.StartManager()
	s.Finish()
	s.Finish()
}
`, 1},
		{"interprocedural drain helper accepted", svcFixture + `
func drain(s *Server) {
	s.End()
	s.Finish()
}
func Ok() {
	s := New()
	s.StartManager()
	drain(s)
}
`, 0},
		{"inject after interprocedural drain flagged", svcFixture + `
func drain(s *Server) {
	s.End()
	s.Finish()
}
func Bad() {
	s := New()
	s.StartManager()
	drain(s)
	s.Inject()
}
`, 1},
		{"recursive pump converges and is accepted when running", svcFixture + `
func pump(s *Server, n int) {
	if n == 0 {
		return
	}
	s.Inject()
	pump(s, n-1)
}
func Ok() {
	s := New()
	s.StartManager()
	pump(s, 3)
}
`, 0},
		{"recursive pump from unstarted server flagged at the call", svcFixture + `
func pump(s *Server, n int) {
	if n == 0 {
		return
	}
	s.Inject()
	pump(s, n-1)
}
func Bad() {
	s := New()
	pump(s, 3)
}
`, 1},
		{"deferred Finish replayed at exit accepted", svcFixture + `
func Ok() {
	s := New()
	s.StartManager()
	defer s.Finish()
	s.Inject()
}
`, 0},
		{"deferred Inject lands after End, flagged", svcFixture + `
func Bad() {
	s := New()
	defer s.Inject()
	s.End()
}
`, 1},
		{"standalone handler with unknown entry state accepted", svcFixture + `
func Handler(s *Server) {
	s.Inject()
}
`, 0},
		{"suppressed with allow comment", svcFixture + `
func Bad() {
	s := New()
	s.Inject() //easyio:allow svclifecycle (teardown-order fault injection fixture)
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := runFixture(t, SvcLifecycle, "example.com/m/internal/service", tc.src)
			wantFindings(t, diags, tc.want, "svclifecycle")
		})
	}
}

// TestSvcLifecycleMessage locks the violation rendering: concrete state,
// legal set, and the op's rationale, plus the machine-readable trace.
func TestSvcLifecycleMessage(t *testing.T) {
	diags := runFixture(t, SvcLifecycle, "example.com/m/internal/service", svcFixture+`
func Bad() {
	s := New()
	s.StartManager()
	s.End()
	s.Inject()
}
`)
	wantFindings(t, diags, 1, "svclifecycle")
	msg := diags[0].Message
	for _, frag := range []string{"s.Inject", "ending", "running", "injected"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("message %q missing %q", msg, frag)
		}
	}
	if len(diags[0].Trace) == 0 {
		t.Errorf("violation carries no state trace")
	}
}

const clusterFixture = `package sim
type Cluster struct{}
type Domain struct{}
func NewCluster() *Cluster { return &Cluster{} }
func (c *Cluster) AddDomain() *Domain { return &Domain{} }
func (c *Cluster) Link()     {}
func (c *Cluster) Run()      {}
func (c *Cluster) Shutdown() {}
func (d *Domain) Send()      {}
`

func TestHorizonProto(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"build, run, shutdown accepted", clusterFixture + `
func Ok() {
	c := NewCluster()
	c.AddDomain()
	c.AddDomain()
	c.Link()
	c.Run()
	c.Shutdown()
}
`, 0},
		{"topology change after Run flagged", clusterFixture + `
func Bad() {
	c := NewCluster()
	c.AddDomain()
	c.Run()
	c.Link()
}
`, 1},
		{"double Run flagged", clusterFixture + `
func Bad() {
	c := NewCluster()
	c.AddDomain()
	c.Run()
	c.Run()
}
`, 1},
		{"shutdown before Run flagged", clusterFixture + `
func Bad() {
	c := NewCluster()
	c.Shutdown()
}
`, 1},
		{"coordinator Send outside a granted horizon flagged", clusterFixture + `
func Bad() {
	c := NewCluster()
	d := c.AddDomain()
	c.Run()
	d.Send()
}
`, 1},
		{"handler Send under unknown (granted) horizon accepted", clusterFixture + `
func Handler(d *Domain) {
	d.Send()
	d.Send()
}
`, 0},
		{"interprocedural topology helper accepted", clusterFixture + `
func topo(c *Cluster) {
	c.AddDomain()
	c.Link()
}
func Ok() {
	c := NewCluster()
	topo(c)
	c.Run()
}
`, 0},
		{"topology helper called after Run flagged at the call", clusterFixture + `
func topo(c *Cluster) {
	c.AddDomain()
	c.Link()
}
func Bad() {
	c := NewCluster()
	c.Run()
	topo(c)
}
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := runFixture(t, HorizonProto, "example.com/m/internal/sim", tc.src)
			wantFindings(t, diags, tc.want, "horizonproto")
		})
	}
}

const managerFixture = `package core
type Manager struct{}
type LApp struct{}
func NewManager() *Manager { return &Manager{} }
func (m *Manager) RegisterLApp() *LApp { return &LApp{} }
func (m *Manager) SetBLimit() {}
func (m *Manager) Start()     {}
func (m *Manager) Stop()      {}
func (l *LApp) Report()       {}
`

func TestEpochBudget(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"configure, run, report, stop accepted", managerFixture + `
func Ok() {
	m := NewManager()
	l := m.RegisterLApp()
	m.SetBLimit()
	m.Start()
	l.Report()
	m.SetBLimit()
	m.Stop()
}
`, 0},
		{"register after Start flagged", managerFixture + `
func Bad() {
	m := NewManager()
	m.Start()
	m.RegisterLApp()
}
`, 1},
		{"report after Stop flagged", managerFixture + `
func Bad() {
	m := NewManager()
	l := m.RegisterLApp()
	m.Start()
	m.Stop()
	l.Report()
}
`, 1},
		{"report before Start flagged", managerFixture + `
func Bad() {
	m := NewManager()
	l := m.RegisterLApp()
	l.Report()
}
`, 1},
		{"double Stop flagged", managerFixture + `
func Bad() {
	m := NewManager()
	m.Start()
	m.Stop()
	m.Stop()
}
`, 1},
		{"restart after Stop flagged", managerFixture + `
func Bad() {
	m := NewManager()
	m.Start()
	m.Stop()
	m.Start()
}
`, 1},
		{"idempotent Start accepted", managerFixture + `
func Ok() {
	m := NewManager()
	m.Start()
	m.Start()
	m.Stop()
}
`, 0},
		{"interprocedural report helper with unknown entry accepted", managerFixture + `
func tick(l *LApp) {
	l.Report()
}
func Ok() {
	m := NewManager()
	l := m.RegisterLApp()
	m.Start()
	tick(l)
	m.Stop()
}
`, 0},
		{"report helper called after Stop flagged at the call", managerFixture + `
func tick(l *LApp) {
	l.Report()
}
func Bad() {
	m := NewManager()
	l := m.RegisterLApp()
	m.Start()
	m.Stop()
	tick(l)
}
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := runFixture(t, EpochBudget, "example.com/m/internal/core", tc.src)
			wantFindings(t, diags, tc.want, "epochbudget")
		})
	}
}

// handleFixture mirrors the fsapi surface by shape: a File with a Close
// method and an FS whose accessors return or take *File.
const handleFixture = `package fx
type File struct{}
func (f *File) Close()      {}
func (f *File) Size() int64 { return 0 }
type FS struct{}
func (s *FS) Open(p string) (*File, error)   { return &File{}, nil }
func (s *FS) Create(p string) (*File, error) { return &File{}, nil }
func (s *FS) ReadAt(f *File, off int64, b []byte) (int, error)  { return 0, nil }
func (s *FS) WriteAt(f *File, off int64, b []byte) (int, error) { return 0, nil }
`

func TestHandleState(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"open, use, close accepted", handleFixture + `
func Ok(fs *FS, b []byte) error {
	f, err := fs.Open("/x")
	if err != nil {
		return err
	}
	if _, err := fs.WriteAt(f, 0, b); err != nil {
		f.Close()
		return err
	}
	f.Close()
	return nil
}
`, 0},
		{"deferred close covers every exit", handleFixture + `
func Ok(fs *FS, b []byte) error {
	f, err := fs.Open("/x")
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fs.WriteAt(f, 0, b); err != nil {
		return err
	}
	_, err = fs.ReadAt(f, 0, b)
	return err
}
`, 0},
		{"error arm leaks the handle, flagged", handleFixture + `
func Bad(fs *FS, b []byte) error {
	f, err := fs.Open("/x")
	if err != nil {
		return err
	}
	if _, err := fs.WriteAt(f, 0, b); err != nil {
		return err
	}
	f.Close()
	return nil
}
`, 1},
		{"use after close flagged", handleFixture + `
func Bad(fs *FS, b []byte) {
	f, err := fs.Open("/x")
	if err != nil {
		return
	}
	f.Close()
	fs.ReadAt(f, 0, b)
}
`, 1},
		{"use after close in a for post statement flagged", handleFixture + `
func Bad(fs *FS, b []byte) {
	f, err := fs.Open("/x")
	if err != nil {
		return
	}
	f.Close()
	for n := 0; n < len(b); fs.ReadAt(f, 0, b) {
		n++
	}
}
`, 1},
		{"method call after close flagged via wildcard matcher", handleFixture + `
func Bad(fs *FS) {
	f, err := fs.Open("/x")
	if err != nil {
		return
	}
	f.Close()
	_ = f.Size()
}
`, 1},
		{"double close flagged", handleFixture + `
func Bad(fs *FS) {
	f, err := fs.Create("/x")
	if err != nil {
		return
	}
	f.Close()
	f.Close()
}
`, 1},
		{"returning the handle transfers ownership", handleFixture + `
func open1(fs *FS) (*File, error) {
	f, err := fs.Open("/x")
	return f, err
}
func Ok(fs *FS) {
	f, err := open1(fs)
	if err != nil {
		return
	}
	f.Close()
}
`, 0},
		{"caller leaking a transferred handle flagged", handleFixture + `
func open1(fs *FS) (*File, error) {
	f, err := fs.Open("/x")
	return f, err
}
func Bad(fs *FS, b []byte) {
	f, err := open1(fs)
	if err != nil {
		return
	}
	fs.ReadAt(f, 0, b)
}
`, 1},
		{"interprocedural close helper discharges the obligation", handleFixture + `
func closeIt(f *File) {
	f.Close()
}
func Ok(fs *FS, b []byte) {
	f, err := fs.Open("/x")
	if err != nil {
		return
	}
	fs.ReadAt(f, 0, b)
	closeIt(f)
}
`, 0},
		{"escape into a struct transfers ownership", handleFixture + `
type holder struct{ f *File }
func Ok(fs *FS, h *holder) {
	f, err := fs.Open("/x")
	if err != nil {
		return
	}
	h.f = f
}
`, 0},
		{"suppressed with allow comment", handleFixture + `
func Bad(fs *FS) {
	f, err := fs.Open("/x") //easyio:allow handlestate (leak-detector fixture)
	if err != nil {
		return
	}
	_ = f.Size()
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := runFixture(t, HandleState, "", tc.src)
			wantFindings(t, diags, tc.want, "handlestate")
		})
	}
}

// TestHandleStateLeakMessage locks the leak rendering and the trace back
// to the creation site.
func TestHandleStateLeakMessage(t *testing.T) {
	diags := runFixture(t, HandleState, "", handleFixture+`
func Bad(fs *FS, b []byte) {
	f, err := fs.Open("/x")
	if err != nil {
		return
	}
	fs.ReadAt(f, 0, b)
}
`)
	wantFindings(t, diags, 1, "handlestate")
	msg := diags[0].Message
	for _, frag := range []string{"fs.Open", "not closed", "Close or transfer ownership"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("message %q missing %q", msg, frag)
		}
	}
	if len(diags[0].Trace) == 0 {
		t.Errorf("leak carries no trace back to the creation site")
	}
}

// parityFixture mirrors the redundancy epoch surface by shape: a Tracker
// whose OpenEpoch hands out an *Epoch with the five lifecycle methods.
const parityFixture = `package fx
type Epoch struct{}
func (e *Epoch) Seal()       {}
func (e *Epoch) Compute()    {}
func (e *Epoch) Persist()    {}
func (e *Epoch) Advance()    {}
func (e *Epoch) Abandon()    {}
func (e *Epoch) N() uint64   { return 0 }
func (e *Epoch) Stripes() int { return 0 }
type Tracker struct{}
func (t *Tracker) OpenEpoch() *Epoch { return &Epoch{} }
`

func TestParityEpoch(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"full lifecycle accepted", parityFixture + `
func Ok(tr *Tracker) {
	ep := tr.OpenEpoch()
	ep.Seal()
	ep.Compute()
	ep.Persist()
	ep.Advance()
}
`, 0},
		{"abandon from any state accepted", parityFixture + `
func Ok(tr *Tracker, crash bool) {
	ep := tr.OpenEpoch()
	ep.Seal()
	if crash {
		ep.Abandon()
		return
	}
	ep.Compute()
	ep.Persist()
	ep.Advance()
}
`, 0},
		{"un-retired epoch leaks, flagged", parityFixture + `
func Bad(tr *Tracker) {
	ep := tr.OpenEpoch()
	ep.Seal()
	ep.Compute()
}
`, 1},
		{"error arm leaks the epoch, flagged", parityFixture + `
func Bad(tr *Tracker, fail bool) {
	ep := tr.OpenEpoch()
	ep.Seal()
	if fail {
		return
	}
	ep.Compute()
	ep.Persist()
	ep.Advance()
}
`, 1},
		{"double seal flagged", parityFixture + `
func Bad(tr *Tracker) {
	ep := tr.OpenEpoch()
	ep.Seal()
	ep.Seal()
	ep.Abandon()
}
`, 1},
		{"compute before seal flagged", parityFixture + `
func Bad(tr *Tracker) {
	ep := tr.OpenEpoch()
	ep.Compute()
	ep.Abandon()
}
`, 1},
		{"advance without persist flagged", parityFixture + `
func Bad(tr *Tracker) {
	ep := tr.OpenEpoch()
	ep.Seal()
	ep.Advance()
	ep.Abandon()
}
`, 1},
		{"deferred abandon covers every exit", parityFixture + `
func Ok(tr *Tracker, fail bool) {
	ep := tr.OpenEpoch()
	defer ep.Abandon()
	ep.Seal()
	if fail {
		return
	}
	ep.Compute()
	ep.Persist()
}
`, 0},
		{"deferred advance replays in the persisted state", parityFixture + `
func Ok(tr *Tracker) {
	ep := tr.OpenEpoch()
	defer ep.Advance()
	ep.Seal()
	ep.Compute()
	ep.Persist()
}
`, 0},
		{"accessor after retire flagged via wildcard matcher", parityFixture + `
func Bad(tr *Tracker) {
	ep := tr.OpenEpoch()
	ep.Seal()
	ep.Compute()
	ep.Persist()
	ep.Advance()
	_ = ep.N()
}
`, 1},
		{"interprocedural retire helper discharges the obligation", parityFixture + `
func finish(ep *Epoch) {
	ep.Persist()
	ep.Advance()
}
func Ok(tr *Tracker) {
	ep := tr.OpenEpoch()
	ep.Seal()
	ep.Compute()
	finish(ep)
}
`, 0},
		{"SCC recursion converges to the retired state", parityFixture + `
func ping(ep *Epoch, n int) {
	if n == 0 {
		ep.Advance()
		return
	}
	pong(ep, n-1)
}
func pong(ep *Epoch, n int) { ping(ep, n) }
func Ok(tr *Tracker) {
	ep := tr.OpenEpoch()
	ep.Seal()
	ep.Compute()
	ep.Persist()
	ping(ep, 3)
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := runFixture(t, ParityEpoch, "", tc.src)
			wantFindings(t, diags, tc.want, "parityepoch")
		})
	}
}

// TestParityEpochLeakMessage locks the leak rendering and its trace.
func TestParityEpochLeakMessage(t *testing.T) {
	diags := runFixture(t, ParityEpoch, "", parityFixture+`
func Bad(tr *Tracker) {
	ep := tr.OpenEpoch()
	ep.Seal()
}
`)
	wantFindings(t, diags, 1, "parityepoch")
	msg := diags[0].Message
	for _, frag := range []string{"OpenEpoch", "advanced nor abandoned", "committed < sealed"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("message %q missing %q", msg, frag)
		}
	}
	if len(diags[0].Trace) == 0 {
		t.Errorf("leak carries no trace back to OpenEpoch")
	}
}

// TestProtocolStats locks the -list rendering inputs: every registered
// protocol reports its state and transition counts.
func TestProtocolStats(t *testing.T) {
	want := map[string][2]int{
		"svclifecycle": {5, 11},
		"horizonproto": {4, 6},
		"epochbudget":  {3, 8},
		"handlestate":  {2, 12},
		"parityepoch":  {5, 14},
		"persistorder": {4, 12},
	}
	for name, counts := range want {
		states, trans, ok := ProtocolStats(name)
		if !ok {
			t.Errorf("ProtocolStats(%q): not a typestate analyzer", name)
			continue
		}
		if states != counts[0] || trans != counts[1] {
			t.Errorf("ProtocolStats(%q) = (%d states, %d transitions), want (%d, %d)",
				name, states, trans, counts[0], counts[1])
		}
	}
	if _, _, ok := ProtocolStats("simtime"); ok {
		t.Errorf("ProtocolStats(simtime): reported typestate stats for a non-typestate analyzer")
	}
}
