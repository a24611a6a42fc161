package serve

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/isa"
	"repro/internal/machine"
)

// RegionBytes is the size of each job's private address region. A job
// runs entirely inside [base, base+RegionBytes); region 0 is left unused
// so a stray zero address cannot alias a job.
const RegionBytes = 4096

// baseReg is the register that carries a job's region base. Litmus
// programs address memory as absolute immediates off r0; rebasing rewrites
// every memory operand to baseReg and pins baseReg to the region base, so
// the same program text runs in any region.
const baseReg = 29

// RegionCount sizes the region pool: the maximum number of physically
// live (admitted but not yet retired) jobs. The old allocator derived a
// job's base from its index (4096·(i+1)), which silently wrapped the
// 32-bit address space at job 2²⁰−1, aliasing two live jobs' regions and
// corrupting the per-job SC filter; the pool recycles a fixed set of
// regions instead, so job indices are unbounded. Jobs execute one at a
// time physically, so even 1024 is far more headroom than any schedule
// can use — exhaustion means a retire leak, and Acquire errors loudly.
const RegionCount = 1024

// regionPool hands out private job regions, lowest-free first (a
// deterministic order, so both backends build byte-identical jobs).
type regionPool struct {
	used [RegionCount]bool
	live int
}

// Acquire returns the lowest free region's base address, or errors if all
// RegionCount regions are live — which can only mean retired jobs are not
// being released, and must fail loudly rather than alias a live region.
func (p *regionPool) Acquire() (uint32, error) {
	for i := range p.used {
		if !p.used[i] {
			p.used[i] = true
			p.live++
			return RegionBytes * (uint32(i) + 1), nil
		}
	}
	return 0, fmt.Errorf("serve: region pool exhausted (%d regions live; retired jobs are not being released)", RegionCount)
}

// Release returns a region to the pool at job retirement.
func (p *regionPool) Release(base uint32) error {
	i := base/RegionBytes - 1
	if base == 0 || base%RegionBytes != 0 || i >= RegionCount {
		return fmt.Errorf("serve: release of %#x, not a pool region base", base)
	}
	if !p.used[i] {
		return fmt.Errorf("serve: double release of region %#x", base)
	}
	p.used[i] = false
	p.live--
	return nil
}

// Job is one admitted unit of work: a litmus program rebased into its
// private region, ready to install in slots 0..len(Threads)-1. Jobs
// execute one at a time physically, so every job reuses the same slots —
// which is exactly what the slot-rewrite machinery (ApplyJob / RetireJob
// and the job submit barrier) exists to make safe.
type Job struct {
	Index   int
	Name    string
	Base    uint32
	Threads []machine.ThreadSpec
	Mem     map[uint32]uint32 // initial image, already rebased
}

// Workloads lists the job generators, in presentation order. Only
// workloads with deterministic control flow are admissible: a job's
// latency is its slowest thread's cycle count, which is only reproducible
// when the instruction path does not depend on racy values (branch-free
// bodies or fixed trip counts — no spin loops, so mp and spinlock are
// excluded).
func Workloads() []string { return []string{"sb", "counter", "rand-priv", "mix"} }

// slotsFor returns the thread-pool size workload needs (its widest job).
func slotsFor(workload string) (int, error) {
	switch workload {
	case "sb":
		return 2, nil
	case "counter", "rand-priv", "mix":
		return 3, nil
	default:
		return 0, fmt.Errorf("serve: unknown workload %q (valid: %v)", workload, Workloads())
	}
}

// The seedless job programs, assembled once: Rebase copies what it
// relocates and never writes its input, so every job and session can share
// them.
var (
	sbLitmus      = sync.OnceValue(func() machine.Litmus { return machine.StoreBufferingLitmus(64) })
	counterLitmus = sync.OnceValue(func() machine.Litmus { return machine.AtomicCounterLitmus(3, 4) })
)

// jobLitmus generates job i's program. Every branch here must keep
// deterministic control flow (see Workloads).
func jobLitmus(workload string, seed int64, i int) (machine.Litmus, error) {
	randPriv := func() machine.Litmus {
		return machine.RandomLitmus(uint64(seed)+uint64(i), machine.RandOpts{PrivateWrites: true})
	}
	switch workload {
	case "sb":
		return sbLitmus(), nil
	case "counter":
		return counterLitmus(), nil
	case "rand-priv":
		return randPriv(), nil
	case "mix":
		switch i % 3 {
		case 0:
			return sbLitmus(), nil
		case 1:
			return counterLitmus(), nil
		default:
			return randPriv(), nil
		}
	}
	return machine.Litmus{}, fmt.Errorf("serve: unknown workload %q (valid: %v)", workload, Workloads())
}

// buildJob generates job i and rebases it into the region at base (an
// Acquire'd pool region).
func buildJob(cfg Config, i int, base uint32) (*Job, error) {
	lit, err := jobLitmus(cfg.Workload, cfg.Seed, i)
	if err != nil {
		return nil, err
	}
	threads, mem, err := Rebase(lit, base)
	if err != nil {
		return nil, fmt.Errorf("serve: job %d (%s): %v", i, lit.Name, err)
	}
	return &Job{Index: i, Name: lit.Name, Base: base, Threads: threads, Mem: mem}, nil
}

// writesRd reports whether op stores a result into Rd. (SW reads Rd as the
// store source; branches compare Rd; JR jumps through Rd; JAL writes r31.)
func writesRd(op isa.Op) bool {
	switch op {
	case isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.SLT,
		isa.SLL, isa.SRL, isa.ADDI, isa.LUI, isa.LW, isa.FAA, isa.SWAP:
		return true
	}
	return false
}

// Rebase relocates a litmus program into the region at base: every memory
// operand's base register moves from r0 to baseReg, baseReg is pinned to
// base in every thread's initial registers, and the initial memory image
// shifts by base. The immediates are untouched, so a program whose
// encoding survived the wire still does. Rebase rejects programs that are
// not relocatable: a memory operand already using a base register, a write
// to baseReg, or an address at or beyond the region size.
func Rebase(lit machine.Litmus, base uint32) ([]machine.ThreadSpec, map[uint32]uint32, error) {
	if base%RegionBytes != 0 || base == 0 {
		return nil, nil, fmt.Errorf("rebase base %#x is not a region boundary", base)
	}
	threads := make([]machine.ThreadSpec, len(lit.Threads))
	for t, spec := range lit.Threads {
		prog := make([]isa.Instr, len(spec.Program))
		for i, in := range spec.Program {
			if in.IsMem() {
				if in.Rs != 0 {
					return nil, nil, fmt.Errorf("thread %d instruction %d: memory operand uses base register r%d (only absolute r0 addressing is relocatable)", t, i, in.Rs)
				}
				if in.Imm < 0 || in.Imm >= RegionBytes {
					return nil, nil, fmt.Errorf("thread %d instruction %d: address %d outside the %d-byte job region", t, i, in.Imm, RegionBytes)
				}
				in.Rs = baseReg
			} else if writesRd(in.Op) && in.Rd == baseReg {
				return nil, nil, fmt.Errorf("thread %d instruction %d: writes r%d, the reserved region base register", t, i, baseReg)
			}
			prog[i] = in
		}
		regs := make(map[int]uint32, len(spec.Regs)+1)
		//em2:unordered-ok: keyed copy; the only error keys on the single baseReg, so firing is order-independent
		for r, v := range spec.Regs {
			if r == baseReg {
				return nil, nil, fmt.Errorf("thread %d: initial register r%d collides with the reserved region base register", t, baseReg)
			}
			regs[r] = v
		}
		regs[baseReg] = base
		threads[t] = machine.ThreadSpec{Program: prog, Regs: regs}
	}
	mem := make(map[uint32]uint32, len(lit.Mem))
	// Sorted so a spec with several out-of-region words always reports the
	// same one.
	for _, a := range slices.Sorted(maps.Keys(lit.Mem)) {
		if a >= RegionBytes {
			return nil, nil, fmt.Errorf("initial memory word %#x outside the %d-byte job region", a, RegionBytes)
		}
		mem[base+a] = lit.Mem[a]
	}
	return threads, mem, nil
}
