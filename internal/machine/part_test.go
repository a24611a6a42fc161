package machine

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestPeekDoesNotBindPlacement pins the read-only contract of Part.Peek:
// inspecting an address no thread has touched must not bind its page under
// a dynamic placement. The old implementation resolved the home via
// place.touch(addr, 0), which first-touch-bound the page to core 0 — so a
// later Preload by core 2 would land the data at the wrong home.
func TestPeekDoesNotBindPlacement(t *testing.T) {
	t.Parallel()
	ft := placement.NewFirstTouch(64)
	cfg := testConfig()
	cfg.Placement = ft
	tr := transport.NewLocal(cfg.Mesh.Cores(), 1)
	p, err := NewPart(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	const addr = 0x200
	if v, ok := p.Peek(addr); ok || v != 0 {
		t.Fatalf("Peek of untouched addr = (%d, %v), want (0, false)", v, ok)
	}
	if home, ok := ft.HomeOf(cache.Addr(addr)); ok {
		t.Fatalf("Peek bound untouched page to core %d", home)
	}

	// First touch after the peek must still win: Preload by core 2 homes the
	// page at core 2, and Peek now sees the stored word there.
	p.Preload(addr, 99, geom.CoreID(2))
	if home, ok := ft.HomeOf(cache.Addr(addr)); !ok || home != 2 {
		t.Fatalf("home after Preload by core 2 = (%d, %v), want (2, true)", home, ok)
	}
	if v, ok := p.Peek(addr); !ok || v != 99 {
		t.Fatalf("Peek after Preload = (%d, %v), want (99, true)", v, ok)
	}
}

// TestSampleEncodeZeroAlloc pins the telemetry tick at zero allocations: a
// 64-core part snapshotted into a reused Sample and rendered as
// line-protocol points into a reused buffer — what one serve-loop sample
// costs the machine — so periodic sampling can never become a per-tick
// allocation tax on a soak. It holds before Start, where the sample runs at
// once, and on a started, parked part, where it is a command the executor
// serves.
func TestSampleEncodeZeroAlloc(t *testing.T) {
	mesh := geom.NewMesh(8, 8)
	cfg := Config{Mesh: mesh, Placement: placement.NewStriped(64, mesh.Cores())}
	part, err := NewPart(cfg, transport.NewLocal(mesh.Cores(), 4))
	if err != nil {
		t.Fatal(err)
	}
	var s transport.Sample
	part.SampleInto(&s)
	buf := telemetry.AppendSamplePoints(nil, &s, 1)
	if len(s.PerCore) != mesh.Cores() || len(buf) == 0 {
		t.Fatalf("sampled %d cores into %d bytes, want %d cores", len(s.PerCore), len(buf), mesh.Cores())
	}
	tick := func() {
		part.SampleInto(&s)
		buf = telemetry.AppendSamplePoints(buf[:0], &s, 1)
	}
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("SampleInto + AppendSamplePoints into reused storage: %.0f allocs, want 0", n)
	}
	if err := part.StartServe(4, func(transport.HaltMsg) {}); err != nil {
		t.Fatal(err)
	}
	defer part.Stop()
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("the same through the executor of a started part: %.0f allocs, want 0", n)
	}
}

// TestMachineSampleZeroAlloc: Machine.Sample fills the buffer the machine
// keeps, so a warm sample allocates nothing and reads what a fresh
// Part.Sample does.
func TestMachineSampleZeroAlloc(t *testing.T) {
	t.Parallel()
	lit := StoreBufferingLitmus(64)
	m, err := New(litmusConfig(), len(lit.Threads))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.RunJob(0, lit.Threads, lit.Mem, time.Minute); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Sample()
	if want, _ := m.part.Sample(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Machine.Sample %+v; Part.Sample %+v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { m.Sample() }); n != 0 {
		t.Errorf("a warm Machine.Sample: %.1f allocs, want 0", n)
	}
}

// TestCountersBeforeHalt: a core counts the halting slice's instructions
// before it reports the halt, so a driver that samples the moment a thread
// halts sees every instruction it ran.
func TestCountersBeforeHalt(t *testing.T) {
	tr := transport.NewLocal(1, 1)
	part, err := NewPart(Config{Mesh: geom.NewMesh(1, 1), Placement: placement.NewStriped(64, 1)}, tr)
	if err != nil {
		t.Fatal(err)
	}
	// One slice: two local memory ops among four instructions.
	threads := []ThreadSpec{{Program: isa.MustAssemble(`
		addi r1, r0, 1
		sw   r1, 0(r0)
		lw   r2, 0(r0)
		halt
	`)}}
	halted := make(chan transport.HaltMsg, 1)
	if err := part.Start(threads, func(h transport.HaltMsg) { halted <- h }); err != nil {
		t.Fatal(err)
	}
	defer part.Stop()
	if err := Inject(threads, 1, tr.SendEviction); err != nil {
		t.Fatal(err)
	}
	<-halted
	s, _ := part.Sample()
	if got := s.PerCore[0]; got.Instructions != 4 || got.LocalOps != 2 {
		t.Fatalf("sampled at the halt report: %d instructions, %d local ops; want 4 and 2", got.Instructions, got.LocalOps)
	}
}

// TestCommandsServedBesideLiveJob: a call from another goroutine is a
// command the executor serves between two rounds, not only when it parks.
// A thread spins on a word no one writes, so the executor never parks;
// beside it the test samples and peeks an untouched word over and over,
// every call returns while the thread still runs, and the samples show it
// running in between. A preload of the word it waits on,
// one more command, then lets it halt. Run it under -race: nothing but the
// command hand-off orders these calls against the executor.
func TestCommandsServedBesideLiveJob(t *testing.T) {
	t.Parallel()
	tr := transport.NewLocal(4, 1)
	part, err := NewPart(Config{Mesh: geom.NewMesh(2, 2), Placement: placement.NewStriped(64, 4), LogEvents: true}, tr)
	if err != nil {
		t.Fatal(err)
	}
	halted := make(chan transport.HaltMsg, 1)
	if err := part.StartServe(1, func(h transport.HaltMsg) { halted <- h }); err != nil {
		t.Fatal(err)
	}
	defer part.Stop()
	if err := part.install([]ThreadSpec{{Program: spinForever()}}, nil, tr.SendEviction); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// The first samples may come before the injected context lands;
		// once it has, the executor never parks, and it runs a round
		// between any two commands.
		var s transport.Sample
		last := int64(0)
		for last == 0 {
			part.SampleInto(&s)
			last = transport.SumMetrics(s.PerCore).Instructions
		}
		for i := range 200 {
			part.SampleInto(&s)
			ran := transport.SumMetrics(s.PerCore).Instructions
			if ran <= last {
				done <- fmt.Errorf("sample %d: %d instructions, no more than the last sample's %d", i, ran, last)
				return
			}
			last = ran
			if v, _ := part.Peek(1 << 20); v != 0 {
				done <- fmt.Errorf("peeking an untouched word read %d", v)
				return
			}
			select {
			case <-halted:
				done <- fmt.Errorf("the spinning thread halted by call %d", i)
				return
			default:
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("calls beside a live job did not return within 30s")
	}
	part.Preload(128, 1, 0)
	select {
	case <-halted:
	case <-time.After(30 * time.Second):
		t.Fatal("the thread did not halt after its word was written")
	}
}

// TestMachineRunCopiesNoImage: Machine.Run returns counters, registers and
// events, never the memory image, so it must not copy the image either —
// the allocations of a run cannot grow with the words preloaded.
func TestMachineRunCopiesNoImage(t *testing.T) {
	mallocs := func(words int) uint64 {
		m, err := New(Config{Mesh: geom.NewMesh(2, 2), Placement: placement.NewStriped(64, 4)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < words; a++ {
			m.Preload(uint32(4*a), 1, 0)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.Run([]ThreadSpec{{Program: isa.MustAssemble("halt")}}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// The fewest of three runs each, so a stray runtime allocation cannot
	// decide the verdict.
	least := func(words int) uint64 { return min(mallocs(words), mallocs(words), mallocs(words)) }
	if small, large := least(1), least(50_000); large > small+16 {
		t.Errorf("Machine.Run: %d allocations with 50 000 preloaded words, %d with one; the image is being copied", large, small)
	}
}

// TestRetireJobZeroAlloc pins serve's retirement at zero allocations: on
// a warm machine — one that has already run and retired the job once, so
// its retire buffer has grown — retiring the next run of an sb, counter or
// rand-priv job allocates nothing. Each measured call retires a job on its
// own machine, so every call drains real words and events.
func TestRetireJobZeroAlloc(t *testing.T) {
	for _, lit := range []Litmus{
		StoreBufferingLitmus(64),
		AtomicCounterLitmus(3, 4),
		RandomLitmus(2011, RandOpts{PrivateWrites: true}),
	} {
		const runs = 8
		var done transport.JobDone
		ms := make([]*Machine, runs+1) // AllocsPerRun calls once more to warm up
		for i := range ms {
			m, err := New(litmusConfig(), len(lit.Threads))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for range 2 {
				if _, err := m.RunJob(0, lit.Threads, lit.Mem, time.Minute); err != nil {
					t.Fatal(err)
				}
				if ev, _ := m.RetireJob(done, 0); len(ev) == 0 {
					t.Fatalf("%s retired no events", lit.Name)
				}
			}
			if _, err := m.RunJob(0, lit.Threads, lit.Mem, time.Minute); err != nil {
				t.Fatal(err)
			}
			ms[i] = m
		}
		next := 0
		retire := func() {
			if ev, _ := ms[next].RetireJob(done, 0); len(ev) == 0 {
				t.Fatalf("%s retired no events", lit.Name)
			}
			next++
		}
		if allocs := testing.AllocsPerRun(runs, retire); allocs != 0 {
			t.Errorf("%s: Machine.RetireJob allocates %.1f times on a warm machine, want 0", lit.Name, allocs)
		}
	}
}

// TestRetireJobEmptiesMachine: a retire takes everything the machine
// holds. A hybrid job reads, under lease grants, words it never writes, so
// at its halt the home shard holds the words, their lease records and the
// read events; after RetireJob no owned shard holds any of them, and the
// retire returned every event. A retire while a context is live is
// protocol corruption and panics.
func TestRetireJobEmptiesMachine(t *testing.T) {
	t.Parallel()
	m, err := New(leaseConfig(core.NewHybrid(16)), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	footprint := func() (words, leases, events int) {
		m.part.call(func() {
			for _, n := range m.part.nodes {
				s := m.part.shards[n.id]
				words, leases, events = words+s.mem.words(), leases+len(s.leases.records()), events+len(s.events)
			}
		})
		return words, leases, events
	}
	reader := isa.MustAssemble(`
		lw r4, 64(r0)
		lw r4, 68(r0)
		lw r4, 64(r0)
		addi r4, r0, 0
		halt
	`)
	if _, err := m.RunJob(0, []ThreadSpec{{Program: reader}}, map[uint32]uint32{64: 1, 68: 2}, time.Minute); err != nil {
		t.Fatal(err)
	}
	words, leases, events := footprint()
	if words == 0 || leases == 0 || events == 0 {
		t.Fatalf("before the retire: %d words, %d lease records, %d events; want each non-zero", words, leases, events)
	}
	if ev, _ := m.RetireJob(transport.JobDone{}, 0); len(ev) != events {
		t.Fatalf("retire returned %d events, want the %d the shards held", len(ev), events)
	}
	if w, l, e := footprint(); w+l+e != 0 {
		t.Fatalf("after the retire: %d words, %d lease records, %d events; want none", w, l, e)
	}

	// A spinning thread keeps its context live; once it has run, a retire
	// must refuse.
	var s transport.Sample
	m.part.SampleInto(&s)
	before := transport.SumMetrics(s.PerCore).Instructions
	if err := m.part.install([]ThreadSpec{{Program: spinForever()}}, nil, m.tr.SendEviction); err != nil {
		t.Fatal(err)
	}
	for transport.SumMetrics(s.PerCore).Instructions == before {
		m.part.SampleInto(&s)
	}
	defer func() {
		if recover() == nil {
			t.Error("a retire beside a live context did not panic")
		}
	}()
	m.RetireJob(transport.JobDone{}, 0)
}
