package machine

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
)

// refRandomLitmus is RandomLitmus as it was before its generator became
// litmusSource, kept verbatim as the reference: a math/rand source seeded
// in full on every call. Both must build the same names, programs and
// memory images for every seed and option set.
func refRandomLitmus(seed uint64, o RandOpts) Litmus {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(int64(seed)))

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
