package machine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/placement"
)

func testConfig() Config {
	return Config{
		Mesh:          geom.NewMesh(2, 2),
		GuestContexts: 2,
		Placement:     placement.NewStriped(64, 4),
		LogEvents:     true,
	}
}

// sized returns full except under -short, keeping the contended
// goroutine-heavy tests (spinlocks on few OS threads) well under a minute.
func sized(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

func run(t *testing.T, cfg Config, threads []ThreadSpec) (*Machine, *Result) {
	t.Helper()
	m, err := New(cfg, len(threads))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(threads)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LogEvents {
		if err := CheckSC(res.Events); err != nil {
			t.Fatalf("SC violation: %v", err)
		}
	}
	return m, res
}

func TestValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(Config{}, 1); err == nil {
		t.Error("zero config accepted")
	}
	cfg := testConfig()
	if _, err := New(cfg, 0); err == nil {
		t.Error("zero threads accepted")
	}
	m, _ := New(cfg, 1)
	if _, err := m.Run(nil); err == nil {
		t.Error("empty thread list accepted")
	}
	if _, err := m.Run([]ThreadSpec{{Program: isa.MustAssemble("halt"), Regs: map[int]uint32{0: 1}}}); err == nil {
		t.Error("write to r0 accepted")
	}
	// Replay schemes consume their decision sequence on every Decide; the
	// runtime may re-issue a Decide after an eviction, so they are rejected
	// at configuration time rather than failing mid-run.
	replay := testConfig()
	replay.Scheme = core.NewFixed("oracle", nil)
	if _, err := New(replay, 1); err == nil {
		t.Error("replay scheme accepted by the concurrent runtime")
	}
	// Predictor state must fit the u16 Sched length field of the wire.
	wide := testConfig()
	wide.Scheme = &core.History{MinRun: 2, Entries: 10000}
	if _, err := New(wide, 1); err == nil {
		t.Error("oversized predictor state accepted")
	}
}

func TestSingleThreadArithmetic(t *testing.T) {
	t.Parallel()
	prog := isa.MustAssemble(`
		addi r1, r0, 6
		addi r2, r0, 7
		mul  r3, r1, r2
		halt
	`)
	_, res := run(t, testConfig(), []ThreadSpec{{Program: prog}})
	if res.FinalRegs[0][3] != 42 {
		t.Errorf("r3 = %d, want 42", res.FinalRegs[0][3])
	}
	if res.Migrations != 0 {
		t.Errorf("pure ALU program migrated %d times", res.Migrations)
	}
}

func TestLoadStoreLocal(t *testing.T) {
	t.Parallel()
	// Address 0 is homed at core 0 under 64-byte striping; thread 0 is
	// native there, so everything stays local.
	prog := isa.MustAssemble(`
		addi r1, r0, 123
		sw   r1, 0(r0)
		lw   r2, 0(r0)
		halt
	`)
	m, res := run(t, testConfig(), []ThreadSpec{{Program: prog}})
	if res.FinalRegs[0][2] != 123 {
		t.Errorf("r2 = %d", res.FinalRegs[0][2])
	}
	if res.Migrations != 0 || res.LocalOps != 2 {
		t.Errorf("mig=%d local=%d", res.Migrations, res.LocalOps)
	}
	if m.Read(0) != 123 {
		t.Errorf("mem[0] = %d", m.Read(0))
	}
}

func TestMigrationOnRemoteAccess(t *testing.T) {
	t.Parallel()
	// Address 64 is homed at core 1; thread 0 must migrate there and back.
	prog := isa.MustAssemble(`
		addi r1, r0, 9
		sw   r1, 64(r0)   ; homed at core 1 -> migrate
		lw   r2, 0(r0)    ; homed at core 0 -> migrate back
		halt
	`)
	_, res := run(t, testConfig(), []ThreadSpec{{Program: prog}})
	if res.Migrations != 2 {
		t.Errorf("migrations = %d, want 2", res.Migrations)
	}
	if res.RemoteReads+res.RemoteWrites != 0 {
		t.Errorf("pure EM² performed remote ops")
	}
}

func TestRemoteAccessScheme(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Scheme = core.AlwaysRemote{}
	prog := isa.MustAssemble(`
		addi r1, r0, 9
		sw   r1, 64(r0)
		lw   r2, 64(r0)
		halt
	`)
	_, res := run(t, cfg, []ThreadSpec{{Program: prog}})
	if res.Migrations != 0 {
		t.Errorf("always-remote migrated %d times", res.Migrations)
	}
	if res.RemoteWrites != 1 || res.RemoteReads != 1 {
		t.Errorf("remote ops = %d/%d", res.RemoteReads, res.RemoteWrites)
	}
	if res.FinalRegs[0][2] != 9 {
		t.Errorf("r2 = %d", res.FinalRegs[0][2])
	}
}

// TestMessagePassingLitmus: the MP litmus test — under SC, once the flag is
// observed, the data must be visible.
func TestMessagePassingLitmus(t *testing.T) {
	t.Parallel()
	// data at 0 (core 0), flag at 64 (core 1).
	writer := isa.MustAssemble(`
		addi r1, r0, 41
		sw   r1, 0(r0)    ; data = 41
		addi r2, r0, 1
		sw   r2, 64(r0)   ; flag = 1
		halt
	`)
	reader := isa.MustAssemble(`
	spin:
		lw   r1, 64(r0)
		beq  r1, r0, spin
		lw   r2, 0(r0)    ; must observe 41
		halt
	`)
	for i := 0; i < sized(20, 5); i++ {
		_, res := run(t, testConfig(), []ThreadSpec{{Program: writer}, {Program: reader}})
		if got := res.FinalRegs[1][2]; got != 41 {
			t.Fatalf("iteration %d: reader saw data=%d after flag (SC violated)", i, got)
		}
	}
}

// TestStoreBufferingLitmus: the SB litmus test — r1=0 ∧ r2=0 is forbidden
// under SC (it is allowed under TSO), and EM² provides SC.
func TestStoreBufferingLitmus(t *testing.T) {
	t.Parallel()
	t0 := isa.MustAssemble(`
		addi r1, r0, 1
		sw   r1, 0(r0)    ; x = 1
		lw   r2, 64(r0)   ; r2 = y
		halt
	`)
	t1 := isa.MustAssemble(`
		addi r1, r0, 1
		sw   r1, 64(r0)   ; y = 1
		lw   r2, 0(r0)    ; r2 = x
		halt
	`)
	for i := 0; i < sized(50, 10); i++ {
		_, res := run(t, testConfig(), []ThreadSpec{{Program: t0}, {Program: t1}})
		if res.FinalRegs[0][2] == 0 && res.FinalRegs[1][2] == 0 {
			t.Fatalf("iteration %d: observed r2=0,r2=0 — forbidden under SC", i)
		}
	}
}

// TestAtomicCounter: FAA at the home core is atomic; N threads × M
// increments always sum exactly.
func TestAtomicCounter(t *testing.T) {
	t.Parallel()
	threads, incs := 8, sized(200, 50)
	prog := isa.MustAssemble(fmt.Sprintf(`
		addi r2, r0, %d    ; loop counter
		addi r3, r0, 1     ; increment
	loop:
		faa  r4, 0(r0), r3 ; counter lives at core 0
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`, incs))
	specs := make([]ThreadSpec, threads)
	for i := range specs {
		specs[i] = ThreadSpec{Program: prog}
	}
	cfg := testConfig()
	cfg.GuestContexts = 1 // maximum eviction pressure
	m, res := run(t, cfg, specs)
	if got := m.Read(0); got != uint32(threads*incs) {
		t.Errorf("counter = %d, want %d", got, threads*incs)
	}
	if res.Evictions == 0 {
		t.Error("hot counter with 1 guest context produced no evictions")
	}
}

// TestNoDeadlockUnderEvictionPressure (M2): every thread hammers every
// other core's memory with a single guest context per core. The test
// passing at all (within the suite timeout) is the deadlock-freedom result.
func TestNoDeadlockUnderEvictionPressure(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.GuestContexts = 1
	cfg.Quantum = 4 // frequent scheduling churn
	const threads = 8
	// Each thread walks addresses 0,64,128,192 (one per core) many times.
	prog := isa.MustAssemble(`
		addi r2, r0, 50
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
	`)
	specs := make([]ThreadSpec, threads)
	for i := range specs {
		specs[i] = ThreadSpec{Program: prog}
	}
	_, res := run(t, cfg, specs)
	if res.Migrations == 0 {
		t.Error("no migrations under all-remote walking")
	}
}

func TestSwapSpinlock(t *testing.T) {
	t.Parallel()
	// A classic test-and-set lock built on SWAP, protecting a non-atomic
	// read-modify-write of a shared word at 128 (core 2). The lock is at 64
	// (core 1). Spinning contexts burn wall-clock on few OS threads —
	// failed acquisitions migrate to the lock's home and back, so cost
	// grows superlinearly with the contention grid; 4x25 keeps the
	// contended-mutual-exclusion scenario (hundreds of critical sections,
	// eviction pressure, SC-checked) at a fraction of the 6x50 wall-clock.
	threads, rounds := sized(4, 3), sized(25, 8)
	prog := isa.MustAssemble(fmt.Sprintf(`
		addi r2, r0, %d
		addi r3, r0, 1
	outer:
	acquire:
		swap r4, 64(r0), r3   ; try lock
		bne  r4, r0, acquire  ; spin while it was held
		lw   r5, 128(r0)      ; critical section: counter++
		addi r5, r5, 1
		sw   r5, 128(r0)
		sw   r0, 64(r0)       ; release (store 0... r0 is the register)
		addi r2, r2, -1
		bne  r2, r0, outer
		halt
	`, rounds))
	specs := make([]ThreadSpec, threads)
	for i := range specs {
		specs[i] = ThreadSpec{Program: prog}
	}
	m, _ := run(t, testConfig(), specs)
	if got := m.Read(128); got != uint32(threads*rounds) {
		t.Errorf("locked counter = %d, want %d", got, threads*rounds)
	}
}

func TestPreloadAndRead(t *testing.T) {
	t.Parallel()
	m, err := New(testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Preload(256, 77, 0)
	if m.Read(256) != 77 {
		t.Errorf("preload lost: %d", m.Read(256))
	}
	prog := isa.MustAssemble(`
		lw r1, 256(r0)
		halt
	`)
	res, err := m.Run([]ThreadSpec{{Program: prog}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRegs[0][1] != 77 {
		t.Errorf("r1 = %d", res.FinalRegs[0][1])
	}
}

func TestInitialRegisters(t *testing.T) {
	t.Parallel()
	prog := isa.MustAssemble(`
		add r3, r1, r2
		halt
	`)
	_, res := run(t, testConfig(), []ThreadSpec{{
		Program: prog,
		Regs:    map[int]uint32{1: 30, 2: 12},
	}})
	if res.FinalRegs[0][3] != 42 {
		t.Errorf("r3 = %d", res.FinalRegs[0][3])
	}
}

func TestEventLogSupportsSCCheck(t *testing.T) {
	t.Parallel()
	prog := isa.MustAssemble(`
		addi r1, r0, 5
		sw   r1, 0(r0)
		lw   r2, 0(r0)
		halt
	`)
	_, res := run(t, testConfig(), []ThreadSpec{{Program: prog}})
	if len(res.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(res.Events))
	}
}

func TestCheckSCDetectsBadRead(t *testing.T) {
	t.Parallel()
	events := []Event{
		{Thread: 0, TSeq: 0, Addr: 0, Kind: EvWrite, Wrote: 1, Seq: 1, Home: 0},
		{Thread: 1, TSeq: 0, Addr: 0, Kind: EvRead, Read: 7, Seq: 2, Home: 0},
	}
	if err := CheckSC(events); err == nil {
		t.Error("stale read not detected")
	}
}

func TestCheckSCDetectsTwoHomes(t *testing.T) {
	t.Parallel()
	events := []Event{
		{Thread: 0, TSeq: 0, Addr: 0, Kind: EvWrite, Wrote: 1, Seq: 1, Home: 0},
		{Thread: 1, TSeq: 0, Addr: 0, Kind: EvWrite, Wrote: 2, Seq: 1, Home: 1},
	}
	if err := CheckSC(events); err == nil {
		t.Error("dual-home access not detected")
	}
}

func TestCheckSCDetectsCycle(t *testing.T) {
	t.Parallel()
	// Two addresses, two threads: each thread's program order contradicts
	// the witness order of the other address — a classic SC violation.
	events := []Event{
		// t0: writes x (first in x's order), then reads y seeing t1's write
		{Thread: 0, TSeq: 0, Addr: 0, Kind: EvWrite, Wrote: 1, Seq: 1, Home: 0},
		{Thread: 0, TSeq: 1, Addr: 4, Kind: EvRead, Read: 1, Seq: 2, Home: 0},
		// t1: writes y (before t0's read of y), then writes x (before t0's
		// write? we force x's witness order to put t1's write AFTER t0's but
		// y's order requires t1 before t0, while t1's program order says
		// write y then write x... construct a genuine cycle:
		// x order: t0.w(Seq1) -> t1.w(Seq3); y order: t1.w(Seq1) -> t0.r(Seq2)
		// program orders: t0: w(x) -> r(y); t1: w(y) -> w(x). Acyclic, so
		// flip: make x's order t1 -> t0 instead.
		{Thread: 1, TSeq: 0, Addr: 4, Kind: EvWrite, Wrote: 1, Seq: 1, Home: 0},
		{Thread: 1, TSeq: 1, Addr: 0, Kind: EvWrite, Wrote: 2, Seq: 3, Home: 0},
	}
	if err := CheckSC(events); err != nil {
		// This particular construction is acyclic; we only assert it is
		// value-legal. The cycle case below must fail.
		t.Fatalf("acyclic case rejected: %v", err)
	}
	cyclic := []Event{
		// x witness: t1 then t0; y witness: t0 then t1.
		// t0 program: r(x)@TSeq0 -> w(y)@TSeq1 ; t1 program: r(y)@TSeq0 -> w(x)@TSeq1.
		// Then: t0.r(x) sees t1.w(x) (x order: w before r) => t1.w(x) -> t0.r(x)
		// and t1.r(y) sees t0.w(y) => t0.w(y) -> t1.r(y).
		// Program order closes the cycle.
		{Thread: 1, TSeq: 1, Addr: 0, Kind: EvWrite, Wrote: 1, Seq: 1, Home: 0},
		{Thread: 0, TSeq: 0, Addr: 0, Kind: EvRead, Read: 1, Seq: 2, Home: 0},
		{Thread: 0, TSeq: 1, Addr: 4, Kind: EvWrite, Wrote: 1, Seq: 1, Home: 1},
		{Thread: 1, TSeq: 0, Addr: 4, Kind: EvRead, Read: 1, Seq: 2, Home: 1},
	}
	if err := CheckSC(cyclic); err == nil {
		t.Error("happens-before cycle not detected")
	}
}

func TestCheckSCNamesDuplicateTSeq(t *testing.T) {
	t.Parallel()
	// One thread logs two memory ops at TSeq 0, at two addresses with two
	// homes: value-legal, but program order no longer orders the pair, so
	// the log itself is malformed — not a happens-before cycle.
	events := []Event{
		{Thread: 0, TSeq: 0, Addr: 0, Kind: EvWrite, Wrote: 1, Seq: 1, Home: 0},
		{Thread: 0, TSeq: 0, Addr: 64, Kind: EvWrite, Wrote: 2, Seq: 1, Home: 1},
	}
	err := CheckSC(events)
	if err == nil {
		t.Fatal("duplicated (Thread, TSeq) not detected")
	}
	if msg := err.Error(); !strings.Contains(msg, "thread 0 logged TSeq 0 twice") || strings.Contains(msg, "cycle") {
		t.Errorf("error = %q, want it to name thread 0's TSeq 0 as logged twice", msg)
	}
}

func TestCheckSCEmpty(t *testing.T) {
	t.Parallel()
	if err := CheckSC(nil); err != nil {
		t.Error(err)
	}
}

// TestManyThreadsManyCores: a larger smoke test on an 4x4 mesh with mixed
// local/remote work, checked for SC.
func TestManyThreadsManyCores(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Mesh:          geom.NewMesh(4, 4),
		GuestContexts: 2,
		Placement:     placement.NewStriped(64, 16),
		LogEvents:     true,
		Quantum:       8,
	}
	prog := isa.MustAssemble(`
		addi r2, r0, 30
		addi r3, r0, 1
	loop:
		faa  r4, 0(r0), r3
		faa  r4, 256(r0), r3
		faa  r4, 512(r0), r3
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`)
	specs := make([]ThreadSpec, 16)
	for i := range specs {
		specs[i] = ThreadSpec{Program: prog}
	}
	m, res := run(t, cfg, specs)
	for _, addr := range []uint32{0, 256, 512} {
		if got := m.Read(addr); got != 16*30 {
			t.Errorf("counter %d = %d, want %d", addr, got, 16*30)
		}
	}
	if res.Instructions == 0 {
		t.Error("no instructions counted")
	}
}
