package machine

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/transport"
)

// leaseConfig is the 2x2 mesh with 64-byte striping (address 64 is homed
// at core 1, remote to a thread resident at core 0) under the given
// caching scheme. GuestContexts is 0 so there are no schedule-dependent
// evictions and every lease count is exact.
func leaseConfig(scheme core.Scheme) Config {
	return Config{
		Mesh:      geom.NewMesh(2, 2),
		Placement: placement.NewStriped(64, 4),
		Scheme:    scheme,
		LogEvents: true,
	}
}

// TestLeaseExpiryBoundaryOnMachine pins the runtime's virtual-time expiry
// arithmetic end to end: a fill at pre-op count m serves cached reads
// while the thread's own-op count stays <= m+window, and the first read
// past the boundary re-requests the lease. With window 4, six back-to-back
// reads of one remote word are exactly 2 lease misses (fills at own-op 0
// and 5) and 4 cached hits — on every run.
func TestLeaseExpiryBoundaryOnMachine(t *testing.T) {
	t.Parallel()
	prog := isa.MustAssemble(`
		lw r4, 64(r0)
		lw r4, 64(r0)
		lw r4, 64(r0)
		lw r4, 64(r0)
		lw r4, 64(r0)
		lw r4, 64(r0)
		addi r4, r0, 0
		halt
	`)
	for i := 0; i < 3; i++ {
		_, res := run(t, leaseConfig(core.CachedRemote{Window: 4}), []ThreadSpec{{Program: prog}})
		if res.LeaseMisses != 2 || res.LeaseHits != 4 || res.LeaseInvals != 0 {
			t.Fatalf("run %d: lease misses/hits/invals = %d/%d/%d, want 2/4/0",
				i, res.LeaseMisses, res.LeaseHits, res.LeaseInvals)
		}
		// Misses are real shard reads; hits never reach the shard.
		if res.RemoteReads != 2 || res.RemoteWrites != 0 || res.Migrations != 0 {
			t.Fatalf("run %d: remote reads/writes/migrations = %d/%d/%d, want 2/0/0",
				i, res.RemoteReads, res.RemoteWrites, res.Migrations)
		}
	}
}

// TestLeaseOwnWriteInvalidatesOnMachine: the holder's own remote write
// drops its lease (counted) before the write reaches the shard, so the
// next read misses and refills — read/read/write/read is exactly
// miss, hit, inval, miss.
func TestLeaseOwnWriteInvalidatesOnMachine(t *testing.T) {
	t.Parallel()
	prog := isa.MustAssemble(`
		lw r4, 64(r0)
		lw r4, 64(r0)
		addi r5, r0, 7
		sw r5, 64(r0)
		lw r4, 64(r0)
		addi r4, r0, 0
		addi r5, r0, 0
		halt
	`)
	m, res := run(t, leaseConfig(core.CachedRemote{Window: 8}), []ThreadSpec{{Program: prog}})
	if res.LeaseMisses != 2 || res.LeaseHits != 1 || res.LeaseInvals != 1 {
		t.Fatalf("lease misses/hits/invals = %d/%d/%d, want 2/1/1",
			res.LeaseMisses, res.LeaseHits, res.LeaseInvals)
	}
	if res.RemoteReads != 2 || res.RemoteWrites != 1 {
		t.Fatalf("remote reads/writes = %d/%d, want 2/1", res.RemoteReads, res.RemoteWrites)
	}
	if got := m.Read(64); got != 7 {
		t.Fatalf("memory[64] = %d, want 7", got)
	}
}

// TestLeaseForeignWriteKeepsCounts is the write-update ordering property:
// another thread's write to a leased word must never change the holder's
// hit/miss counts, no matter when the home shard's update lands — foreign
// writes replace the cached value in place, they never remove entries.
// The holder performs 1 fill + 4 in-window reads; the writer's single
// store may land anywhere in that sequence, and every run must still
// count exactly 5 lease events the same way.
func TestLeaseForeignWriteKeepsCounts(t *testing.T) {
	t.Parallel()
	holder := isa.MustAssemble(`
		lw r4, 64(r0)
		lw r4, 64(r0)
		lw r4, 64(r0)
		lw r4, 64(r0)
		lw r4, 64(r0)
		addi r4, r0, 0
		halt
	`)
	writer := isa.MustAssemble(`
		addi r5, r0, 9
		sw r5, 64(r0)
		addi r5, r0, 0
		halt
	`)
	for i := 0; i < sized(20, 5); i++ {
		_, res := run(t, leaseConfig(core.CachedRemote{Window: 16}),
			[]ThreadSpec{{Program: holder}, {Program: writer}})
		if res.LeaseMisses != 1 || res.LeaseHits != 4 || res.LeaseInvals != 0 {
			t.Fatalf("run %d: lease misses/hits/invals = %d/%d/%d, want 1/4/0 regardless of write timing",
				i, res.LeaseMisses, res.LeaseHits, res.LeaseInvals)
		}
	}
}

// TestShardLeaseTable unit-tests the home-side lease table: grants
// dedupe, the first write closes every holder's lease with one
// write-update each (in grant order), and a retire's drain drops the
// records outright.
func TestShardLeaseTable(t *testing.T) {
	t.Parallel()
	s := leasingShard(1, false)
	read := func(from uint32) transport.MemReply {
		rep, invals := s.apply(transport.MemRequest{
			Thread: -1, Op: transport.OpRead, Addr: 64, From: from, Lease: 8,
		}, nil)
		if len(invals) != 0 {
			t.Fatalf("a read produced %d invalidations", len(invals))
		}
		return rep
	}
	write := func(from, val uint32) []transport.LeaseInval {
		_, invals := s.apply(transport.MemRequest{
			Thread: -1, Op: transport.OpWrite, Addr: 64, Arg: val, From: from,
		}, nil)
		return invals
	}

	if rep := read(0); rep.Lease != 8 {
		t.Fatalf("granted reply carries lease %d, want 8", rep.Lease)
	}
	read(2)
	read(0) // duplicate grant must not duplicate the holder record
	if recs := s.leases.records(); len(recs) != 1 || !slices.Equal(recs[64], []geom.CoreID{0, 2}) {
		t.Fatalf("records after three grants: %v, want 64: [0 2]", recs)
	}

	invals := write(3, 99)
	want := []transport.LeaseInval{
		{Dst: 0, Addr: 64, Value: 99},
		{Dst: 2, Addr: 64, Value: 99},
	}
	if len(invals) != len(want) {
		t.Fatalf("first write returned %d updates, want %d (%v)", len(invals), len(want), invals)
	}
	for i := range want {
		if invals[i] != want[i] {
			t.Fatalf("update %d = %+v, want %+v", i, invals[i], want[i])
		}
	}
	if again := write(3, 100); len(again) != 0 {
		t.Fatalf("second write returned %d updates; records were not cleared", len(again))
	}
	if recs := s.leases.records(); len(recs) != 0 {
		t.Fatalf("records after the write: %v, want none", recs)
	}
	// A closed record's list is reused: grant→write cycles on one word
	// keep the table at one list.
	for range 100 {
		read(2)
		write(3, 99)
	}
	if n := len(s.leases.holders); n != 1 {
		t.Fatalf("100 grant→write cycles left %d holder lists, want 1", n)
	}

	// A drain drops lease records with the data: a write to a drained
	// word owes nobody an update.
	read(2)
	s.drain(nil)
	if words, _ := s.gauges(); words != 0 {
		t.Fatalf("drain left %d words", words)
	}
	if recs := s.leases.records(); len(recs) != 0 {
		t.Fatalf("drain left records %v", recs)
	}
	if invals := write(3, 101); len(invals) != 0 {
		t.Fatalf("write after drain returned %d updates; lease records survived the drain", len(invals))
	}

	// RMW ops close leases too.
	read(0)
	_, invals = s.apply(transport.MemRequest{
		Thread: -1, Op: transport.OpFAA, Addr: 64, Arg: 1, From: 2,
	}, nil)
	if len(invals) != 1 || invals[0].Dst != 0 {
		t.Fatalf("FAA returned updates %v, want one for core 0", invals)
	}
}

// TestLeaseWindowTooWideRejected: a lease window that cannot ride the
// u16 wire field must be rejected at configuration time, not truncated
// silently on the first request.
func TestLeaseWindowTooWideRejected(t *testing.T) {
	t.Parallel()
	if _, err := New(leaseConfig(core.CachedRemote{Window: 1 << 16}), 1); err == nil {
		t.Error("oversized lease window accepted")
	}
	if _, err := New(leaseConfig(core.CachedRemote{Window: 1<<16 - 1}), 1); err != nil {
		t.Errorf("widest encodable window rejected: %v", err)
	}
}

// countingLeaser is hybrid:64 with every predictor counting its Decide
// calls into one shared counter; it stays a core.Leaser by embedding.
type countingLeaser struct {
	*core.Hybrid
	decides *atomic.Int64
}

func (s countingLeaser) NewPredictor(thread int) core.Predictor {
	return countingPredictor{Predictor: s.Hybrid.NewPredictor(thread), decides: s.decides}
}

type countingPredictor struct {
	core.Predictor
	decides *atomic.Int64
}

func (p countingPredictor) Decide(info core.AccessInfo) core.Decision {
	p.decides.Add(1)
	return p.Predictor.Decide(info)
}

// checkDecideContract requires one Decide per access that left the core
// (a remote read or write, or a migration) and none for a lease hit.
func checkDecideContract(t *testing.T, decides int64, res *Result) {
	t.Helper()
	if res.LeaseHits == 0 || res.RemoteWrites == 0 || res.Migrations == 0 || res.Evictions != 0 {
		t.Fatalf("%d lease hits, %d remote writes, %d migrations, %d evictions; the check needs each kind and no re-issued Decide",
			res.LeaseHits, res.RemoteWrites, res.Migrations, res.Evictions)
	}
	if want := res.RemoteReads + res.RemoteWrites + res.Migrations; decides != want {
		t.Errorf("%d Decide calls; want remote reads %d + remote writes %d + migrations %d = %d (lease hits %d)",
			decides, res.RemoteReads, res.RemoteWrites, res.Migrations, want, res.LeaseHits)
	}
}

// decideThreads is the hop kernel, whose writes are all to the writer's
// own pages, plus a seventeenth thread, native to core 0, that writes and
// reads words homed at cores 5 and 9: hybrid's history sends its writes
// remote first and then migrates them.
func decideThreads(iters int) []ThreadSpec {
	prog := isa.MustAssemble(`
	loop:
		sw   r8, 0(r1)
		sw   r8, 4(r1)
		lw   r7, 0(r2)
		lw   r7, 4(r2)
		sw   r8, 8(r2)
		addi r6, r6, -1
		bne  r6, r0, loop
		halt
	`)
	return append(hopThreads(iters), ThreadSpec{Program: prog, Regs: map[int]uint32{
		1: 5 * 4096, 2: 9 * 4096, 6: uint32(iters), 8: 7,
	}})
}

// TestLeaseHitSkipsDecide pins the Leaser contract in process: a read of
// a validly leased word is served from the lease before the scheme is
// asked, so under hybrid:64 Decide runs exactly once per remote read,
// remote write and migration.
func TestLeaseHitSkipsDecide(t *testing.T) {
	t.Parallel()
	var decides atomic.Int64
	cfg := Config{
		Mesh:      geom.NewMesh(4, 4),
		Placement: placement.NewPageStriped(4096, 16),
		Scheme:    countingLeaser{Hybrid: core.NewHybrid(64), decides: &decides},
	}
	_, res := run(t, cfg, decideThreads(sized(40, 10)))
	checkDecideContract(t, decides.Load(), res)
}

// TestLeaseHitSkipsDecideTCP is TestLeaseHitSkipsDecide on a 2-node TCP
// loopback cluster. The scheme crosses the wire by name, so each node
// here is ServeNode's sequence with the resolved hybrid:64 wrapped in
// countingLeaser.
func TestLeaseHitSkipsDecideTCP(t *testing.T) {
	t.Parallel()
	man, lns, err := transport.LocalListeners(2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var decides atomic.Int64
	var nodes sync.WaitGroup
	for i := range man.Nodes {
		nodes.Add(1)
		go func() {
			defer nodes.Done()
			if err := countingNode(man, i, lns[i], &decides); err != nil {
				t.Errorf("node %d: %v", i, err)
			}
		}()
	}
	res, err := ClusterRun{Manifest: man, Threads: decideThreads(sized(40, 10)),
		Config: ClusterConfig{Scheme: "hybrid:64", Placement: "page-striped:4096", Timeout: time.Minute}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	nodes.Wait() // the run's close shut the nodes down
	checkDecideContract(t, decides.Load(), &res.Result)
}

// countingNode serves node idx of man until shutdown, as ServeNode does,
// with the loaded hybrid scheme counting its Decide calls into decides.
func countingNode(man transport.Manifest, idx int, ln net.Listener, decides *atomic.Int64) error {
	tn, err := transport.ListenNodeOn(man, idx, ln)
	if err != nil {
		return err
	}
	defer tn.Close()
	var spec *transport.LoadSpec
	select {
	case spec = <-tn.Loads():
	case <-tn.ShutdownC():
		return nil
	}
	cfg, err := ResolveLoad(geom.NewMesh(man.W, man.H), spec)
	if err != nil {
		return err
	}
	cfg.Scheme = countingLeaser{Hybrid: cfg.Scheme.(*core.Hybrid), decides: decides}
	tn.Prepare(spec.NumThreads)
	part, err := NewPart(cfg, tn)
	if err != nil {
		return err
	}
	tn.HandleControl(part)
	onHalt := func(h transport.HaltMsg) { _ = tn.SendHalt(h) } //em2:errsink-ok: link teardown surfaces at the coordinator's barrier
	if err := part.StartServe(spec.NumThreads, onHalt); err != nil {
		return err
	}
	tn.Ready()
	if err := tn.SendReply(transport.Reply{}); err != nil {
		return err
	}
	<-tn.ShutdownC()
	part.Stop()
	return nil
}
