package machine

import (
	"testing"

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
// write-update each (in grant order), and region reclamation drops the
// records outright.
func TestShardLeaseTable(t *testing.T) {
	t.Parallel()
	s := newShard(1, false)
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

	// Region reclamation drops lease records with the data: a write to a
	// reclaimed word owes nobody an update.
	read(2)
	if _, words := s.reclaim(0, 128); words == 0 {
		t.Fatal("reclaim removed no words")
	}
	if invals := write(3, 101); len(invals) != 0 {
		t.Fatalf("write after reclaim returned %d updates; lease records survived reclamation", len(invals))
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
