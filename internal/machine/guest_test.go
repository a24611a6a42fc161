package machine

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/transport"
)

// newGuestPoolNode returns core 1 of a two-core in-process part that was
// never started (no executor), so the guest-pool transitions can be driven
// synchronously and deterministically; core 0's queues receive what it
// evicts. Eight thread slots are installed, as Start would, because an
// eviction checks its thread's slot.
func newGuestPoolNode(t *testing.T, guestContexts int) (*coreNode, *Part) {
	t.Helper()
	cfg := Config{
		Mesh:          geom.NewMesh(2, 1),
		GuestContexts: guestContexts,
		Placement:     placement.NewStriped(64, 2),
	}
	p, err := NewPart(cfg, transport.NewLocal(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	spec := &ThreadSpec{Program: isa.MustAssemble("halt")}
	p.specs = make([]atomic.Pointer[ThreadSpec], 8)
	for i := range p.specs {
		p.specs[i].Store(spec)
	}
	p.ctxs = make([]context, len(p.specs))
	return p.nodeOf[1], p
}

// guestCtx fills thread's slot with a live context native to core 0 (a
// guest anywhere else) and returns it.
func guestCtx(p *Part, thread int) *context {
	c := &p.ctxs[thread]
	*c = context{thread: thread, native: 0, pred: core.AlwaysMigrate{}.NewPredictor(thread), live: true}
	return c
}

// TestEvictionOrder pins what evictOneGuest actually does: it removes the
// *first guest in run-queue order*, which — because requeue returns an
// executed guest to the tail — is the guest that has waited longest since
// its last scheduling slice, NOT the longest-resident guest. The deadlock-
// freedom argument only needs "some queued guest is evictable", but the
// order was documented as longest-resident; this test keeps the documented
// behaviour honest.
func TestEvictionOrder(t *testing.T) {
	debugGuestPool.Store(true)
	defer debugGuestPool.Store(false)
	n, p := newGuestPoolNode(t, 3)
	a, b, c := guestCtx(p, 0), guestCtx(p, 1), guestCtx(p, 2)
	n.acceptGuest(a)
	n.acceptGuest(b)
	n.acceptGuest(c)
	if n.guests != 3 {
		t.Fatalf("guests = %d after three accepts, want 3", n.guests)
	}

	// Schedule a (the longest-resident guest) exactly as loop() does: pop,
	// execute (no-op here), requeue to the tail.
	got := n.runq[0]
	n.runq = n.runq[1:]
	n.execGuest = got.native != n.id
	if got != a {
		t.Fatalf("popped thread %d, want thread 0", got.thread)
	}
	n.requeue(got) // queue order is now b, c, a

	victim, _ := n.evictOneGuest()
	if victim == nil {
		t.Fatal("no guest evicted from a queue of three")
	}
	// b is evicted: first in queue order (longest since last slice), even
	// though a has been resident longest.
	if victim != b {
		t.Errorf("evicted thread %d, want thread 1 (first in queue order, not longest-resident)", victim.thread)
	}
	if q := p.nodeOf[0].evictQ; len(q) != 1 {
		t.Errorf("victim's native eviction queue holds %d contexts, want 1", len(q))
	} else if q[0].thread != 1 {
		t.Errorf("eviction queue carried thread %d, want 1", q[0].thread)
	}
	if n.guests != 2 {
		t.Errorf("guests = %d after eviction, want 2", n.guests)
	}
}

// TestGuestPoolOvercommitCounted drives the "all evictable guests are gone,
// accept anyway" path directly: a guest arrives while the core's only
// resident guest is mid-instruction (executing, so not in the run queue and
// not displaceable). The accept must proceed — refusing would deadlock the
// migration network — but the pool now exceeds GuestContexts, and that
// overflow must land in the overcommits counter instead of passing
// silently. The invariant (guests == resident non-native contexts, never
// negative) is machine-checked at every transition via debugGuestPool.
func TestGuestPoolOvercommitCounted(t *testing.T) {
	debugGuestPool.Store(true)
	defer debugGuestPool.Store(false)
	n, p := newGuestPoolNode(t, 1)
	a := guestCtx(p, 0)
	n.acceptGuest(a)

	// The engine pops a for execution; it stays resident (and counted).
	popped := n.runq[0]
	n.runq = n.runq[1:]
	n.execGuest = true
	n.checkGuestPool()

	b := guestCtx(p, 1)
	n.acceptGuest(b) // no queued guest to evict: overcommit
	if got := n.ctr.overcommits.Load(); got != 1 {
		t.Errorf("overcommits = %d after accept past a mid-flight guest, want 1", got)
	}
	if n.guests != 2 {
		t.Errorf("guests = %d, want 2 (executing a + queued b)", n.guests)
	}
	if got := n.ctr.metrics(n.id).Overcommits; got != 1 {
		t.Errorf("CoreMetrics.Overcommits = %d, want 1", got)
	}

	// a migrates away at the end of its instruction: the pool returns to
	// its limit and the counter stays (it records history, not occupancy).
	n.guestDeparted(popped)
	if n.guests != 1 {
		t.Errorf("guests = %d after departure, want 1", n.guests)
	}

	// b schedules and halts: pool empties, counter never goes negative.
	got := n.runq[0]
	n.runq = n.runq[1:]
	n.execGuest = true
	n.checkGuestPool()
	n.guestDeparted(got)
	if n.guests != 0 {
		t.Errorf("guests = %d after all guests left, want 0", n.guests)
	}
}

// TestGuestPoolInvariantUnderContention is the end-to-end regression: with
// GuestContexts: 1 and every thread walking every core's memory, the guest
// pool invariant is re-checked at every accept/requeue/evict/departure on
// every core (debugGuestPool panics on drift). Because the engine accepts
// arrivals only between execution slices — the executing guest has always
// been requeued (evictable) or departed by accept time — the eviction loop
// can always make room, so the run must complete with zero overcommits;
// that claim is exactly what the counter pins.
func TestGuestPoolInvariantUnderContention(t *testing.T) {
	debugGuestPool.Store(true)
	defer debugGuestPool.Store(false)
	cfg, specs := guestContention()
	_, res := run(t, cfg, specs)
	if res.Evictions == 0 {
		t.Error("no evictions with GuestContexts: 1 under all-core contention")
	}
	if res.Overcommits != 0 {
		t.Errorf("overcommits = %d; arrivals are only accepted between slices, so the pool should never overflow", res.Overcommits)
	}
	var perCore int64
	for _, m := range res.PerCore {
		perCore += m.Overcommits
	}
	if perCore != res.Overcommits {
		t.Errorf("per-core overcommits sum %d != aggregate %d", perCore, res.Overcommits)
	}
}

// guestContention is the all-core contention run: GuestContexts 1, a
// 4-instruction quantum, and every thread walking every core's memory.
func guestContention() (Config, []ThreadSpec) {
	cfg := testConfig()
	cfg.GuestContexts = 1
	cfg.Quantum = 4
	threads := sized(8, 4)
	rounds := sized(50, 12)
	prog := isa.MustAssemble(fmt.Sprintf(`
		addi r2, r0, %d
	loop:
		lw   r3, 0(r0)
		lw   r4, 64(r0)
		lw   r5, 128(r0)
		lw   r6, 192(r0)
		sw   r2, 0(r0)
		sw   r2, 64(r0)
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`, rounds))
	specs := make([]ThreadSpec, threads)
	for i := range specs {
		specs[i] = ThreadSpec{Program: prog}
	}
	return cfg, specs
}

// TestHaltReportedAfterGuestDeparts pins the order of a guest's HALT: the
// core retires the guest from its resident count before it reports the
// halt, so a driver that samples the machine the moment its last halt
// arrives finds the guest gauge at zero. Reported first, the serve
// telemetry stream showed a phantom guest about every other em2soak run.
func TestHaltReportedAfterGuestDeparts(t *testing.T) {
	tr := transport.NewLocal(2, 1)
	part, err := NewPart(Config{Mesh: geom.NewMesh(2, 1), Placement: placement.NewStriped(64, 2)}, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Address 64 is homed at core 1: the thread migrates there and halts
	// as a guest.
	prog := isa.MustAssemble(`
		sw   r0, 64(r0)
		halt
	`)
	guests := make(chan int64, 1)
	if err := part.Start([]ThreadSpec{{Program: prog}}, func(transport.HaltMsg) {
		var s transport.Sample
		part.SampleInto(&s)
		guests <- s.GuestTotal()
	}); err != nil {
		t.Fatal(err)
	}
	if err := Inject([]ThreadSpec{{Program: prog}}, 2, tr.SendEviction); err != nil {
		t.Fatal(err)
	}
	got := <-guests
	part.Stop()
	if got != 0 {
		t.Fatalf("guest gauge reads %d when the halt is reported, want 0", got)
	}
}
