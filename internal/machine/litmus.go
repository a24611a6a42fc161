package machine

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/isa"
)

// Litmus is a named multi-threaded test program: threads, an initial
// memory image, and an optional outcome check. The litmus battery runs
// these on the in-process machine and on TCP clusters; every execution is
// additionally validated with CheckSC.
type Litmus struct {
	Name    string
	Threads []ThreadSpec
	Mem     map[uint32]uint32
	// Deterministic marks programs whose final memory image and final
	// register files are schedule-independent — the ones usable for
	// differential comparison between transports.
	Deterministic bool
	// Check validates the outcome; read returns a final memory word. Nil
	// means the SC check (and, if Deterministic, the differential
	// comparison) is the whole assertion.
	Check func(read func(uint32) uint32, regs [][isa.NumRegs]uint32) error
}

// Verify checks one run of l: the recorded execution must be sequentially
// consistent from l.Mem (the run needs LogEvents), and the outcome must
// pass l.Check on the final memory image and registers.
func (l Litmus) Verify(res *ClusterResult) error {
	if err := CheckSCFrom(l.Mem, res.Events); err != nil {
		return fmt.Errorf("%s: SC violation: %v", l.Name, err)
	}
	if l.Check == nil {
		return nil
	}
	return l.Check(func(a uint32) uint32 { return res.Mem[a] }, res.FinalRegs)
}

// Identical reports the first difference between two runs of l that must
// agree bit for bit — the same description on two transports, or twice on
// one: final registers and per-core counter rows always, the memory image
// when l is Deterministic (two writers to one word leave a
// schedule-dependent image even when every counter is exact). It is for
// runs whose counters are schedule-independent: no guest limit to evict
// on, no spin loops.
func (l Litmus) Identical(a, b *ClusterResult) error {
	if !slices.Equal(a.FinalRegs, b.FinalRegs) {
		return fmt.Errorf("%s: final registers differ:\n %v\n %v", l.Name, a.FinalRegs, b.FinalRegs)
	}
	if !slices.Equal(a.PerCore, b.PerCore) {
		return fmt.Errorf("%s: per-core metrics differ:\n %+v\n %+v", l.Name, a.PerCore, b.PerCore)
	}
	if l.Deterministic && !maps.Equal(a.Mem, b.Mem) {
		return fmt.Errorf("%s: final memory images differ (%d and %d words)", l.Name, len(a.Mem), len(b.Mem))
	}
	return nil
}

// MessagePassingLitmus is the MP litmus test: once the reader observes the
// flag, it must observe the data — the paper's headline SC guarantee. Data
// lives at 0, the flag at stride (a different home under 64-byte striping
// when stride ≥ 64). Both the final memory image and the final registers
// are deterministic.
func MessagePassingLitmus(stride uint32) Litmus {
	writer := isa.MustAssemble(fmt.Sprintf(`
		addi r1, r0, 41
		sw   r1, 0(r0)    ; data = 41
		addi r2, r0, 1
		sw   r2, %d(r0)   ; flag = 1
		halt
	`, stride))
	reader := isa.MustAssemble(fmt.Sprintf(`
	spin:
		lw   r1, %d(r0)
		beq  r1, r0, spin
		lw   r2, 0(r0)    ; must observe 41
		halt
	`, stride))
	return Litmus{
		Name:          "mp",
		Threads:       []ThreadSpec{{Program: writer}, {Program: reader}},
		Deterministic: true,
		Check: func(read func(uint32) uint32, regs [][isa.NumRegs]uint32) error {
			if got := regs[1][2]; got != 41 {
				return fmt.Errorf("mp: reader saw data=%d after flag (SC violated)", got)
			}
			return nil
		},
	}
}

// StoreBufferingLitmus is the SB litmus test: r2=0 in both threads is
// forbidden under SC (it is the signature TSO relaxation). The final
// memory image (x=1, y=1) is deterministic; the registers are not.
func StoreBufferingLitmus(stride uint32) Litmus {
	prog := func(mine, other uint32) []isa.Instr {
		return isa.MustAssemble(fmt.Sprintf(`
			addi r1, r0, 1
			sw   r1, %d(r0)
			lw   r2, %d(r0)
			halt
		`, mine, other))
	}
	return Litmus{
		Name:    "sb",
		Threads: []ThreadSpec{{Program: prog(0, stride)}, {Program: prog(stride, 0)}},
		Check: func(read func(uint32) uint32, regs [][isa.NumRegs]uint32) error {
			if regs[0][2] == 0 && regs[1][2] == 0 {
				return fmt.Errorf("sb: observed r2=0 in both threads — forbidden under SC")
			}
			return nil
		},
	}
}

// AtomicCounterLitmus has every thread FAA-increment one shared counter
// incs times: the final counter value is exact iff the RMW is atomic at
// the home core. The memory image is deterministic; the FAA return
// registers are not.
func AtomicCounterLitmus(threads, incs int) Litmus {
	prog := isa.MustAssemble(fmt.Sprintf(`
		addi r2, r0, %d
		addi r3, r0, 1
	loop:
		faa  r4, 0(r0), r3
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`, incs))
	specs := make([]ThreadSpec, threads)
	for i := range specs {
		specs[i] = ThreadSpec{Program: prog}
	}
	return Litmus{
		Name:    "counter",
		Threads: specs,
		Check: func(read func(uint32) uint32, regs [][isa.NumRegs]uint32) error {
			if got, want := read(0), uint32(threads*incs); got != want {
				return fmt.Errorf("counter: %d after %d×%d atomic increments, want %d", got, threads, incs, want)
			}
			return nil
		},
	}
}

// RandOpts parameterizes RandomLitmus; zero fields take defaults.
type RandOpts struct {
	Threads int // number of threads (default 3)
	Ops     int // memory/ALU ops per loop body (default 8)
	Iters   int // loop iterations (default 4)
	Addrs   int // shared addresses, stride 64 so homes differ (default 6)
	// PrivateWrites restricts every store/RMW to addresses private to the
	// writing thread. Shared words are then read-only (preload values), so
	// every load, register, and the final memory image are deterministic —
	// the shape the differential transport test compares bit-for-bit.
	PrivateWrites bool
}

func (o RandOpts) withDefaults() RandOpts {
	if o.Threads == 0 {
		o.Threads = 3
	}
	if o.Ops == 0 {
		o.Ops = 8
	}
	if o.Iters == 0 {
		o.Iters = 4
	}
	if o.Addrs == 0 {
		o.Addrs = 6
	}
	// privateBase packs per-thread write regions into [512, 1024) so the
	// atomics' 11-bit immediates encode; that caps PrivateWrites at four
	// threads. (Shared mode writes only to the shared pool, so any thread
	// count works: higher threads merely read their — unwritten — private
	// words.)
	if o.PrivateWrites && o.Threads > 4 {
		o.Threads = 4
	}
	if o.Addrs > 8 {
		o.Addrs = 8
	}
	return o
}

// privateBase returns thread t's private address region: above the shared
// pool, disjoint between threads, and small enough that every address fits
// the 11-bit immediate of the atomic instructions (so the same program
// survives the wire encoding unchanged).
func privateBase(t int) uint32 { return 512 + 128*uint32(t) }

// RandomLitmus generates a small random multi-threaded program from seed.
// Every program terminates by construction: the only backward branch is a
// bounded loop counter, and loop bodies are branch-free. Shared addresses
// are 64 bytes apart, so under striped:64 placement each lives at a
// different home core and the program exercises migration, remote access,
// eviction, and home-shard serialization all at once.
//
// Its draws are math/rand's: the stream of rand.New(rand.NewSource(seed))
// exactly, from a litmusSource that computes only the words of the
// seeded table that the draws read.
func RandomLitmus(seed uint64, o RandOpts) Litmus {
	o = o.withDefaults()
	rng := litmusRands.Get().(*rand.Rand)
	defer litmusRands.Put(rng)
	rng.Seed(int64(seed))

	shared := make([]uint32, o.Addrs)
	mem := make(map[uint32]uint32, o.Addrs)
	for i := range shared {
		shared[i] = uint32(i) * 64
		mem[shared[i]] = uint32(rng.Intn(1 << 12)) // preloaded read fodder
	}

	threads := make([]ThreadSpec, o.Threads)
	for t := range threads {
		priv := make([]uint32, 2)
		for i := range priv {
			priv[i] = privateBase(t) + uint32(i)*64
		}
		readPool := append(append([]uint32(nil), shared...), priv...)
		writePool := shared
		if o.PrivateWrites {
			writePool = priv
		}

		// Temp registers r4..r11; r2 is the loop counter, r3 the constant 1.
		tmp := func() uint8 { return uint8(4 + rng.Intn(8)) }
		pick := func(pool []uint32) int32 { return int32(pool[rng.Intn(len(pool))]) }

		prog := []isa.Instr{
			{Op: isa.ADDI, Rd: 2, Rs: 0, Imm: int32(o.Iters)},
			{Op: isa.ADDI, Rd: 3, Rs: 0, Imm: 1},
		}
		for i := 0; i < o.Ops; i++ {
			switch rng.Intn(6) {
			case 0, 1: // loads dominate, as in real sharing patterns
				prog = append(prog, isa.Instr{Op: isa.LW, Rd: tmp(), Rs: 0, Imm: pick(readPool)})
			case 2:
				prog = append(prog, isa.Instr{Op: isa.SW, Rd: tmp(), Rs: 0, Imm: pick(writePool)})
			case 3:
				prog = append(prog, isa.Instr{Op: isa.FAA, Rd: tmp(), Rs: 0, Rt: 3, Imm: pick(writePool)})
			case 4:
				prog = append(prog, isa.Instr{Op: isa.SWAP, Rd: tmp(), Rs: 0, Rt: tmp(), Imm: pick(writePool)})
			case 5:
				ops := []isa.Op{isa.ADD, isa.SUB, isa.XOR, isa.AND, isa.OR}
				prog = append(prog, isa.Instr{Op: ops[rng.Intn(len(ops))], Rd: tmp(), Rs: tmp(), Rt: tmp()})
			}
		}
		prog = append(prog,
			isa.Instr{Op: isa.ADDI, Rd: 2, Rs: 2, Imm: -1},
			// Back to the first body instruction (index 2): imm is relative
			// to the next pc.
			isa.Instr{Op: isa.BNE, Rd: 2, Rs: 0, Imm: int32(2 - (len(prog) + 2))},
			isa.Instr{Op: isa.HALT},
		)
		threads[t] = ThreadSpec{Program: prog}
	}
	name := fmt.Sprintf("rand-%d", seed)
	if o.PrivateWrites {
		name = fmt.Sprintf("rand-priv-%d", seed)
	}
	return Litmus{Name: name, Threads: threads, Mem: mem, Deterministic: o.PrivateWrites}
}

// The additive lagged-Fibonacci generator behind math/rand.NewSource: a
// 607-word register with its tap 273 words behind the feed, seeded word
// by word from a Lehmer generator mod 2³¹−1 (multiplier 48271) XORed with
// a fixed table of 607 "cooked" constants.
const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerP = 1<<31 - 1
)

// litmusRands pools the generators RandomLitmus reseeds: a reseed is O(1),
// so a call costs its draws and allocates no register.
var litmusRands = sync.Pool{New: func() any { return rand.New(new(litmusSource)) }}

// litmusSource is a rand.Source64 whose stream equals
// math/rand.NewSource(seed)'s for every seed. math/rand fills the whole
// register on Seed; this source computes a word only when a draw first
// reads it. Draw k (from 0) adds the tap word 606−k to the feed word and
// stores the sum at the feed, which is 333−k for k ≤ 333 and 940−k up to
// k = 606. So in the first 607 draws every feed word is read for the
// first time, and a tap word is too while k < 273; after that it is the
// sum draw k−273 stored. Every other read sees a stored sum.
type litmusSource struct {
	vec       [rngLen]int64
	tap, feed int
	n         int    // draws since the seed, counted up to rngLen
	x0        uint64 // the Lehmer state the seed maps to
	t         *litmusTables
}

// litmusTables is what every seed shares: math/rand's cooked constants
// and pow[i] = 48271^(21+3i) mod 2³¹−1, the Lehmer step that seeds word i.
type litmusTables struct {
	cooked, pow [rngLen]uint64
}

// Seed implements rand.Source: math/rand's seed normalization, then an
// empty register.
func (s *litmusSource) Seed(seed int64) {
	seed %= lehmerP
	if seed < 0 {
		seed += lehmerP
	}
	if seed == 0 {
		seed = 89482311
	}
	s.tap, s.feed, s.n, s.x0, s.t = 0, rngLen-rngTap, 0, uint64(seed), litmusTabs()
}

// Int63 implements rand.Source.
func (s *litmusSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 implements rand.Source64: math/rand's draw, with first reads
// computed (word).
func (s *litmusSource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	f, t := s.vec[s.feed], s.vec[s.tap]
	if s.n < rngLen {
		f = s.word(s.feed)
		if s.n < rngTap {
			t = s.word(s.tap)
		}
		s.n++
	}
	s.vec[s.feed] = f + t
	return uint64(f + t)
}

// word is the seeded register's word i: its Lehmer part from state
// 48271^(21+3i)·x0, XOR the cooked constant.
func (s *litmusSource) word(i int) int64 {
	return int64(lehmerPart(s.t.pow[i]*s.x0%lehmerP) ^ s.t.cooked[i])
}

// lehmerPart packs Lehmer state x1 and the two states after it at bits
// 40, 20 and 0; the shifts drop high bits exactly as math/rand's int64
// ones do.
func lehmerPart(x1 uint64) uint64 {
	x2 := lehmerA * x1 % lehmerP
	x3 := lehmerA * x2 % lehmerP
	return x1<<40 ^ x2<<20 ^ x3
}

// litmusTabs builds the shared tables once per process. The cooked
// constants are recovered from math/rand's own first 607 draws for seed 1:
// draw k is V[333−k] + V[606−k] for k < 273, V[333−k] + o[k−273] for
// k ∈ [273, 333] and V[940−k] + o[k−273] for k ∈ [334, 606], where V is
// the seeded register; solving for V and XORing out the seed's Lehmer
// part leaves the constants.
var litmusTabs = sync.OnceValue(func() *litmusTables {
	t := new(litmusTables)
	p := uint64(1)
	for range 21 {
		p = p * lehmerA % lehmerP
	}
	const a3 = lehmerA * lehmerA % lehmerP * lehmerA % lehmerP
	for i := range t.pow {
		t.pow[i] = p
		p = p * a3 % lehmerP
	}
	src := rand.NewSource(1).(rand.Source64)
	var o, v [rngLen]uint64
	for k := range o {
		o[k] = src.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		if k <= 333 {
			v[333-k] = o[k] - o[k-rngTap]
		} else {
			v[940-k] = o[k] - o[k-rngTap]
		}
	}
	for k := range rngTap {
		v[333-k] = o[k] - v[606-k]
	}
	for i := range v {
		t.cooked[i] = v[i] ^ lehmerPart(t.pow[i]) // seed 1: x1 is the power itself
	}
	return t
})
