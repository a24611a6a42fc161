package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/geom"
	"repro/internal/trace"
)

// Decision is the per-access choice of Figure 3: migrate the execution
// context to the home core, or keep the context in place and perform a
// word-granular remote cache access.
type Decision int

// The decisions. Migrate and RemoteAccess are the paper's two moves;
// RemoteReadCached is the lease layer's (lease.go): a remote read that
// also requests a lease, so the reply fills the thread's lease cache. A
// read the cache can serve never reaches a scheme: the engine and the
// runtime serve it from the lease first (Leaser).
const (
	Migrate Decision = iota
	RemoteAccess
	RemoteReadCached
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Migrate:
		return "migrate"
	case RemoteAccess:
		return "remote-access"
	case RemoteReadCached:
		return "remote-read-cached"
	}
	return fmt.Sprintf("decision(%d)", int(d))
}

// AccessInfo is everything a hardware decision unit would see when an access
// misses the current core: who is asking, where execution currently is,
// where the data lives, and the access itself.
type AccessInfo struct {
	Thread int
	Index  int // position in the thread's access stream
	Cur    geom.CoreID
	Home   geom.CoreID
	Native geom.CoreID
	Access trace.Access
}

// Scheme is a migrate-vs-remote-access decision scheme. A scheme is a
// *factory*: all decision state is per thread, held by the Predictor values
// it mints, exactly as a hardware decision unit keeps its tables in the
// per-context state that migrates with the thread. Scheme values themselves
// are immutable and safe to share between goroutines.
type Scheme interface {
	Name() string
	// NewPredictor returns a fresh predictor for one thread. Thread ids let
	// replay schemes (the DP oracle's Fixed) select their decision sequence.
	NewPredictor(thread int) Predictor
}

// Predictor carries one thread's decision state. Decide is consulted only
// for non-local accesses (Cur != Home) that no lease serves; the engine
// handles local hits itself, as in Figure 3's flow chart, and a read of a
// validly leased word under a Leaser before asking. Observe feeds the ground truth of
// every access (local or not) in program order, *before* the corresponding
// Decide, and Flush marks the end of the thread's access stream so an open
// run can be learned from.
//
// Decide must not mutate predictor state: the concurrent runtime may
// re-issue a Decide for the same access after an eviction moved the
// context, and a pure Decide keeps the state trajectory identical to the
// trace-driven engine's.
//
// The wire methods serialize the predictor state so the concurrent runtime
// can ship it inside the migrating context (transport.Context.Sched): a
// fixed-length, canonical, big-endian encoding per scheme. Stateless
// predictors encode to zero bytes.
type Predictor interface {
	Decide(info AccessInfo) Decision
	Observe(home geom.CoreID, addr trace.Addr)
	Flush()

	// StateLen returns the fixed byte length of the wire state.
	StateLen() int
	// AppendState appends exactly StateLen bytes of wire state to b.
	AppendState(b []byte) []byte
	// SetState restores the predictor from exactly StateLen bytes.
	SetState(b []byte) error
}

// Stateless is embedded by predictors that keep no cross-access state: the
// feedback hooks are no-ops and the wire state is empty.
type Stateless struct{}

// Observe implements Predictor.
func (Stateless) Observe(geom.CoreID, trace.Addr) {}

// Flush implements Predictor.
func (Stateless) Flush() {}

// StateLen implements Predictor.
func (Stateless) StateLen() int { return 0 }

// AppendState implements Predictor.
func (Stateless) AppendState(b []byte) []byte { return b }

// SetState implements Predictor.
func (Stateless) SetState(b []byte) error {
	if len(b) != 0 {
		return fmt.Errorf("core: stateless predictor given %d bytes of state", len(b))
	}
	return nil
}

// constantPredictor always answers d.
type constantPredictor struct {
	Stateless
	d Decision
}

func (p constantPredictor) Decide(AccessInfo) Decision { return p.d }

// AlwaysMigrate is the pure EM² of §2: every non-local access migrates.
type AlwaysMigrate struct{}

// Name implements Scheme.
func (AlwaysMigrate) Name() string { return "always-migrate" }

// NewPredictor implements Scheme.
func (AlwaysMigrate) NewPredictor(int) Predictor { return constantPredictor{d: Migrate} }

// AlwaysRemote is the remote-access-only baseline the paper contrasts with
// (Fensch & Cintra [15]): every non-local access is a round trip and
// execution never moves.
type AlwaysRemote struct{}

// Name implements Scheme.
func (AlwaysRemote) Name() string { return "always-remote" }

// NewPredictor implements Scheme.
func (AlwaysRemote) NewPredictor(int) Predictor { return constantPredictor{d: RemoteAccess} }

// distanceScheme migrates only when the home is within a threshold hop
// count: nearby migrations are cheap (little serialization advantage for
// RA), while a remote access avoids dragging the context across the die. A
// plausible hardware scheme — the decision needs only the home coordinates,
// which the address carries.
type distanceScheme struct {
	mesh      geom.Mesh
	threshold int
}

// NewDistance returns a scheme that migrates when hops(cur,home) <= thresh.
func NewDistance(mesh geom.Mesh, thresh int) Scheme {
	return &distanceScheme{mesh: mesh, threshold: thresh}
}

// Name implements Scheme.
func (d *distanceScheme) Name() string { return fmt.Sprintf("distance<=%d", d.threshold) }

// NewPredictor implements Scheme.
func (d *distanceScheme) NewPredictor(int) Predictor { return &distancePredictor{s: d} }

type distancePredictor struct {
	Stateless
	s *distanceScheme
}

func (p *distancePredictor) Decide(info AccessInfo) Decision {
	if p.s.mesh.Hops(info.Cur, info.Home) <= p.s.threshold {
		return Migrate
	}
	return RemoteAccess
}

// History is a per-(thread, home-page) run-length predictor: if the most
// recent run through a page's home lasted at least MinRun consecutive
// accesses, the thread migrates next time it touches that page (it will
// likely stay and amortize the context transfer); otherwise it performs a
// remote access. This is the kind of "hardware-implementable scheme" the
// paper wants to evaluate against the DP upper bound, so the state is
// bounded like hardware: an Entries-deep LRU table of (page, run length)
// plus the live run, all of it per thread and serializable, so the
// concurrent runtime ships it inside the migrating context.
type History struct {
	MinRun    int
	PageBytes int
	// Entries bounds the per-thread lastRun table (default 16).
	Entries int
	// RunPages bounds how many distinct pages a single live run tracks
	// (default 8); a run touching more pages learns only the first RunPages.
	RunPages int
}

// History table defaults: a 16-entry table with up to 8 pages per run is
// 170 bytes of state — a plausible hardware budget next to the ≈1 Kbit
// architectural context.
const (
	DefaultHistoryEntries  = 16
	DefaultHistoryRunPages = 8
)

// NewHistory returns a history predictor scheme with the given run
// threshold and default table sizes.
func NewHistory(minRun int) *History {
	return &History{MinRun: minRun, PageBytes: 4096}
}

// Name implements Scheme.
func (h *History) Name() string { return fmt.Sprintf("history>=%d", h.MinRun) }

// normalized fills zero fields with defaults.
func (h *History) normalized() History {
	n := *h
	if n.PageBytes <= 0 {
		n.PageBytes = 4096
	}
	if n.Entries <= 0 {
		n.Entries = DefaultHistoryEntries
	}
	if n.RunPages <= 0 {
		n.RunPages = DefaultHistoryRunPages
	}
	return n
}

// NewPredictor implements Scheme. Both tables are made at their bounds,
// so learning never grows them.
func (h *History) NewPredictor(int) Predictor {
	cfg := h.normalized()
	return &HistoryPredictor{
		cfg:      cfg,
		curHome:  geom.None,
		curPages: make([]uint32, 0, cfg.RunPages),
		entries:  make([]historyEntry, 0, cfg.Entries),
	}
}

// historyEntry is one lastRun table slot: the most recent completed run
// length at a page's home, recorded against that page.
type historyEntry struct {
	page uint32
	run  uint32
}

// HistoryPredictor is one thread's history-decision state. Exported so the
// wire-format tests can drive it directly; engines use it through the
// Predictor interface.
type HistoryPredictor struct {
	cfg History

	// Live run: the home being visited, the run length so far, and the
	// distinct pages touched (bounded by cfg.RunPages).
	curHome  geom.CoreID
	curLen   uint32
	curPages []uint32

	// entries is the lastRun table in MRU-first order, at most cfg.Entries.
	entries []historyEntry
}

func (p *HistoryPredictor) page(addr trace.Addr) uint32 {
	return uint32(addr / trace.Addr(p.cfg.PageBytes))
}

// Decide implements Predictor. Unknown pages default to remote access: the
// cheap, low-risk choice for an isolated reference.
func (p *HistoryPredictor) Decide(info AccessInfo) Decision {
	page := p.page(info.Access.Addr)
	for _, e := range p.entries {
		if e.page == page {
			if e.run >= uint32(p.cfg.MinRun) {
				return Migrate
			}
			return RemoteAccess
		}
	}
	return RemoteAccess
}

// Observe implements Predictor: every access (local or not) extends the
// thread's live run, and a run ends when the thread touches a different
// core's memory.
func (p *HistoryPredictor) Observe(home geom.CoreID, addr trace.Addr) {
	page := p.page(addr)
	if p.curHome == home {
		if p.curLen < ^uint32(0) {
			p.curLen++
		}
		p.notePage(page)
		return
	}
	p.record()
	p.curHome = home
	p.curLen = 1
	p.curPages = append(p.curPages[:0], page)
}

// notePage adds page to the live run's touched set (dedup, bounded).
func (p *HistoryPredictor) notePage(page uint32) {
	for _, q := range p.curPages {
		if q == page {
			return
		}
	}
	if len(p.curPages) < p.cfg.RunPages {
		p.curPages = append(p.curPages, page)
	}
}

// record learns the completed live run: its length is credited to *every*
// page the run touched at that home, not just the page that started it, so
// a later reference to any of them predicts correctly.
func (p *HistoryPredictor) record() {
	if p.curLen == 0 {
		return
	}
	for _, page := range p.curPages {
		p.insert(historyEntry{page: page, run: p.curLen})
	}
}

// insert places e at the MRU position, replacing any existing entry for the
// same page and evicting the LRU entry when the table is full.
func (p *HistoryPredictor) insert(e historyEntry) {
	for i, old := range p.entries {
		if old.page == e.page {
			copy(p.entries[1:i+1], p.entries[:i])
			p.entries[0] = e
			return
		}
	}
	if len(p.entries) < p.cfg.Entries {
		p.entries = append(p.entries, historyEntry{})
	}
	copy(p.entries[1:], p.entries)
	p.entries[0] = e
}

// Flush implements Predictor: the thread's access stream ended, so the
// in-flight run is learned before it is lost. The trace engine calls this
// once per thread at end of trace; the concurrent runtime calls it at HALT.
func (p *HistoryPredictor) Flush() {
	p.record()
	p.curHome = geom.None
	p.curLen = 0
	p.curPages = p.curPages[:0]
}

// LastRun returns the learned run length for the page containing addr and
// whether the table holds it — a test hook mirroring what Decide consults.
//
//em2:reference-only the history tests read the learned table through it
func (p *HistoryPredictor) LastRun(addr trace.Addr) (int, bool) {
	page := p.page(addr)
	for _, e := range p.entries {
		if e.page == page {
			return int(e.run), true
		}
	}
	return 0, false
}

// StateLen implements Predictor: the encoding is fixed-size for a given
// table geometry, so every node of a cluster agrees on the context wire
// length from the scheme name alone.
func (p *HistoryPredictor) StateLen() int {
	return 4 + 4 + 1 + 4*p.cfg.RunPages + 1 + 8*p.cfg.Entries
}

// AppendState implements Predictor. Layout (big-endian):
//
//	u32  curHome (geom.CoreID as int32; None when idle)
//	u32  curLen
//	u8   live-run page count, then RunPages x u32 page (unused slots zero)
//	u8   table entry count, then Entries x (u32 page, u32 run), MRU first
//	     (unused slots zero)
func (p *HistoryPredictor) AppendState(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(int32(p.curHome)))
	b = binary.BigEndian.AppendUint32(b, p.curLen)
	b = append(b, byte(len(p.curPages)))
	for _, page := range p.curPages {
		b = binary.BigEndian.AppendUint32(b, page)
	}
	for i := len(p.curPages); i < p.cfg.RunPages; i++ {
		b = binary.BigEndian.AppendUint32(b, 0)
	}
	b = append(b, byte(len(p.entries)))
	for _, e := range p.entries {
		b = binary.BigEndian.AppendUint32(b, e.page)
		b = binary.BigEndian.AppendUint32(b, e.run)
	}
	for i := len(p.entries); i < p.cfg.Entries; i++ {
		b = binary.BigEndian.AppendUint64(b, 0)
	}
	return b
}

// SetState implements Predictor. It accepts exactly the strings AppendState
// emits (unused slots must be zero), which makes the encoding canonical.
func (p *HistoryPredictor) SetState(b []byte) error {
	if len(b) != p.StateLen() {
		return fmt.Errorf("core: history state length %d, want %d", len(b), p.StateLen())
	}
	curHome := geom.CoreID(int32(binary.BigEndian.Uint32(b)))
	curLen := binary.BigEndian.Uint32(b[4:])
	nPages := int(b[8])
	if nPages > p.cfg.RunPages {
		return fmt.Errorf("core: history state claims %d live pages, table holds %d", nPages, p.cfg.RunPages)
	}
	pages := b[9:]
	curPages := p.curPages[:0]
	for i := 0; i < p.cfg.RunPages; i++ {
		v := binary.BigEndian.Uint32(pages[4*i:])
		if i < nPages {
			curPages = append(curPages, v)
		} else if v != 0 {
			return fmt.Errorf("core: history state has non-zero unused live-page slot %d", i)
		}
	}
	tab := pages[4*p.cfg.RunPages:]
	nEntries := int(tab[0])
	if nEntries > p.cfg.Entries {
		return fmt.Errorf("core: history state claims %d entries, table holds %d", nEntries, p.cfg.Entries)
	}
	tab = tab[1:]
	entries := p.entries[:0]
	for i := 0; i < p.cfg.Entries; i++ {
		page := binary.BigEndian.Uint32(tab[8*i:])
		run := binary.BigEndian.Uint32(tab[8*i+4:])
		if i < nEntries {
			entries = append(entries, historyEntry{page: page, run: run})
		} else if page != 0 || run != 0 {
			return fmt.Errorf("core: history state has non-zero unused table slot %d", i)
		}
	}
	p.curHome = curHome
	p.curLen = curLen
	p.curPages = curPages
	p.entries = entries
	return nil
}

// Fixed replays a precomputed decision sequence per thread — the vehicle for
// the DP oracle's output. Decisions are consumed in order per thread, for
// non-local accesses only (matching how the oracle emits them).
type Fixed struct {
	name      string
	decisions map[int][]Decision
}

// NewFixed wraps per-thread decision sequences. Each thread's predictor
// consumes its sequence one entry per non-local access.
func NewFixed(name string, decisions map[int][]Decision) *Fixed {
	return &Fixed{name: name, decisions: decisions}
}

// Name implements Scheme.
func (f *Fixed) Name() string { return f.name }

// NewPredictor implements Scheme.
func (f *Fixed) NewPredictor(thread int) Predictor {
	return &fixedPredictor{f: f, thread: thread}
}

type fixedPredictor struct {
	Stateless
	f      *Fixed
	thread int
	next   int
}

// Decide replays the next decision. The replay index is predictor state in
// spirit, but Decide stays externally pure: Fixed exists only for trace
// replay against the oracle, never for the concurrent runtime, and the
// engine calls Decide exactly once per non-local access there.
func (p *fixedPredictor) Decide(AccessInfo) Decision {
	seq := p.f.decisions[p.thread]
	if p.next >= len(seq) {
		panic(fmt.Sprintf("core: fixed scheme %q exhausted for thread %d", p.f.name, p.thread))
	}
	d := seq[p.next]
	p.next++
	return d
}
