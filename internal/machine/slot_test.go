package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/transport"
)

// newSlotPart builds a 2x2 part under scheme with threads sized slots and
// stops its core loops again, so tests can drive fromWire/toWire on the
// slots synchronously.
func newSlotPart(t *testing.T, scheme string, threads int) *Part {
	t.Helper()
	cfg := testConfig()
	s, err := ParseScheme(scheme, cfg.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = s
	p, err := NewPart(cfg, transport.NewLocal(cfg.Mesh.Cores(), threads))
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]ThreadSpec, threads)
	for i := range specs {
		specs[i] = ThreadSpec{Program: isa.MustAssemble("halt")}
	}
	if err := p.Start(specs, func(transport.HaltMsg) {}); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	return p
}

// TestSlotDoubleArrivalPanics: a thread has at most one live context
// system-wide, and its slot is reused on every arrival, so a second
// arrival while the first is still resident would silently alias the two.
// It must fail loudly, naming the thread and the core.
func TestSlotDoubleArrivalPanics(t *testing.T) {
	p := newSlotPart(t, "history:2", 2)
	p.fromWire(0, transport.Context{Thread: 1})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "thread 1") || !strings.Contains(msg, "core 3") {
			t.Errorf("second arrival: panic %q, want one naming thread 1 and core 3", msg)
		}
	}()
	p.fromWire(3, transport.Context{Thread: 1})
}

// TestHandoffZeroAlloc pins a migration at zero allocations: toWire into
// the slot's sched buffer, then fromWire back into the same slot, with a
// warm predictor (and, under hybrid, a warm lease cache).
func TestHandoffZeroAlloc(t *testing.T) {
	for _, scheme := range []string{"history:2", "hybrid:64"} {
		p := newSlotPart(t, scheme, 1)
		c := p.fromWire(0, transport.Context{Thread: 0})
		for i := 0; i < 64; i++ {
			c.pred.Observe(geom.CoreID(i%3), cache.Addr(i/2*4096))
			if c.lease != nil {
				c.lease.Fill(cache.Addr(64*i), uint32(i), uint64(i))
			}
		}
		at := geom.CoreID(0)
		hop := func() {
			w := p.toWire(c)
			c.live = false
			at = (at + 1) % 4
			c = p.fromWire(at, w)
		}
		hop()
		if n := testing.AllocsPerRun(200, hop); n != 0 {
			t.Errorf("%s: toWire -> fromWire on a warm slot: %.1f allocs, want 0", scheme, n)
		}
	}
}

// randWire returns a random wire context for thread th under p's scheme:
// an injection (empty Sched) one time in three, else a predictor state
// grown from random accesses.
func randWire(rng *rand.Rand, p *Part, th int) transport.Context {
	w := transport.Context{
		Thread: int32(th),
		Native: int32(rng.Intn(4)),
		MemSeq: rng.Int63n(1 << 20),
		Cycles: rng.Uint64(),
		Msgs:   rng.Uint32(),
		Arch:   isa.Context{PC: rng.Int31n(1 << 10)},
	}
	for i := range w.Arch.Regs {
		w.Arch.Regs[i] = rng.Uint32()
	}
	if rng.Intn(2) == 0 {
		w.Flags |= transport.FlagObserved
	}
	if rng.Intn(3) > 0 {
		pred := p.cfg.Scheme.NewPredictor(th)
		for k := rng.Intn(40); k > 0; k-- {
			pred.Observe(geom.CoreID(rng.Intn(4)), cache.Addr(rng.Intn(1<<16)))
		}
		w.Sched = pred.AppendState(nil)
	}
	return w
}

// TestSlotDirtyDecodesLikeFresh: fromWire into a slot that earlier visits
// left dirty — predictor state, lease entries, sched buffer, registers;
// often a thread returning long after it left for another node — must
// produce exactly what fromWire into a zero slot produces.
func TestSlotDirtyDecodesLikeFresh(t *testing.T) {
	const threads = 4
	// strip drops the fields compared by behaviour rather than identity.
	strip := func(c context) context {
		c.spec, c.pred, c.sched, c.lease = nil, nil, nil, nil
		return c
	}
	for _, scheme := range []string{"history:2", "hybrid:64"} {
		rng := rand.New(rand.NewSource(1))
		dirty, fresh := newSlotPart(t, scheme, threads), newSlotPart(t, scheme, threads)
		for trial := 0; trial < 500; trial++ {
			th := rng.Intn(threads)
			at := geom.CoreID(rng.Intn(4))
			w := randWire(rng, dirty, th)
			fresh.ctxs[th] = context{}
			got, want := dirty.fromWire(at, w), fresh.fromWire(at, w)
			if !reflect.DeepEqual(strip(*got), strip(*want)) {
				t.Fatalf("%s trial %d: dirty slot decoded %+v, zero slot %+v", scheme, trial, strip(*got), strip(*want))
			}
			if !reflect.DeepEqual(*got.spec, *want.spec) {
				t.Fatalf("%s trial %d: dirty slot runs spec %+v, zero slot %+v", scheme, trial, *got.spec, *want.spec)
			}
			if g, f := got.pred.AppendState(nil), want.pred.AppendState(nil); string(g) != string(f) {
				t.Fatalf("%s trial %d: dirty slot predictor state %x, zero slot %x", scheme, trial, g, f)
			}
			if (got.lease == nil) != (want.lease == nil) || got.lease != nil && (got.lease.Len() != 0 || got.lease.Window() != want.lease.Window()) {
				t.Fatalf("%s trial %d: dirty slot lease cache not the empty one a zero slot gets", scheme, trial)
			}
			// Dirty the slot further, ship it out and leave it: the thread
			// may come back here many trials later.
			for k := rng.Intn(20); k > 0; k-- {
				got.pred.Observe(geom.CoreID(rng.Intn(4)), cache.Addr(rng.Intn(1<<16)))
				if got.lease != nil {
					got.lease.Fill(cache.Addr(4*rng.Intn(64)), rng.Uint32(), uint64(k))
				}
			}
			got.regs[1]++
			dirty.toWire(got)
			got.live, want.live = false, false
		}
	}
}

// TestSlotReuseManyHandoffs drives thousands of migrations and evictions
// through the reused slots on live core goroutines, under both stateful
// schemes. Under the race detector it is the check that every departing
// context is retired before its send: the receiving core rewrites the same
// slot object.
func TestSlotReuseManyHandoffs(t *testing.T) {
	t.Parallel()
	threads, rounds := 8, sized(200, 20)
	// Two writes per home in a row make both schemes migrate (hybrid
	// decides only writes by history); the shared counter at address 0
	// checks the result.
	prog := isa.MustAssemble(fmt.Sprintf(`
		addi r2, r0, %d
		addi r7, r0, 1
	loop:
		lw   r3, 0(r0)
		faa  r4, 0(r0), r7
		sw   r2, 64(r0)
		sw   r2, 68(r0)
		sw   r2, 128(r0)
		sw   r2, 132(r0)
		lw   r5, 192(r0)
		lw   r6, 196(r0)
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`, rounds))
	specs := make([]ThreadSpec, threads)
	for i := range specs {
		specs[i] = ThreadSpec{Program: prog}
	}
	for _, scheme := range []string{"history:2", "hybrid:64"} {
		cfg := testConfig()
		cfg.GuestContexts = 1
		s, err := ParseScheme(scheme, cfg.Mesh)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scheme = s
		m, res := run(t, cfg, specs)
		if got := m.Read(0); got != uint32(threads*rounds) {
			t.Errorf("%s: counter = %d, want %d", scheme, got, threads*rounds)
		}
		if res.Migrations < int64(threads*rounds) {
			t.Errorf("%s: %d migrations, want at least one per thread round (%d)", scheme, res.Migrations, threads*rounds)
		}
	}
}
