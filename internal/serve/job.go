package serve

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/isa"
	"repro/internal/machine"
)

// RegionBytes is the size of a job's address region and also its base:
// a job runs entirely inside [RegionBytes, 2·RegionBytes), so a stray zero
// address cannot alias it. The machine holds one job at a time and a
// retire empties it, so every job runs at the one base.
const RegionBytes = 4096

// baseReg is the register that carries a job's region base. Litmus
// programs address memory as absolute immediates off r0; rebasing rewrites
// every memory operand to baseReg and pins baseReg to the region base, so
// the same program text runs in any region.
const baseReg = 29

// Job is one admitted unit of work: a litmus program rebased at
// RegionBytes, ready to install in slots 0..len(Threads)-1. Jobs execute
// one at a time, so every job reuses the same slots and region — which is
// exactly what the slot-rewrite machinery (ApplyJob / RetireJob and the
// job submit barrier) exists to make safe. Threads and Mem are read-only:
// the seedless jobs share theirs across every job and session.
type Job struct {
	Index   int
	Name    string
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

// rebased is lit rebased at RegionBytes, as a job with index 0.
func rebased(lit machine.Litmus) (Job, error) {
	threads, mem, err := Rebase(lit, RegionBytes)
	if err != nil {
		return Job{}, fmt.Errorf("(%s): %v", lit.Name, err)
	}
	return Job{Name: lit.Name, Threads: threads, Mem: mem}, nil
}

// The seedless jobs, assembled and rebased once: at the one base every
// job of theirs is the same, and no consumer writes a job's threads or
// image, so every job and session shares them.
var (
	sbJob      = sync.OnceValues(func() (Job, error) { return rebased(machine.StoreBufferingLitmus(64)) })
	counterJob = sync.OnceValues(func() (Job, error) { return rebased(machine.AtomicCounterLitmus(3, 4)) })
)

// buildJob generates job i. Every branch here must keep deterministic
// control flow (see Workloads).
func buildJob(cfg Config, i int) (*Job, error) {
	kind := cfg.Workload
	if kind == "mix" {
		kind = [...]string{"sb", "counter", "rand-priv"}[i%3]
	}
	var j Job
	var err error
	switch kind {
	case "sb":
		j, err = sbJob()
	case "counter":
		j, err = counterJob()
	case "rand-priv":
		j, err = rebased(machine.RandomLitmus(uint64(cfg.Seed)+uint64(i), machine.RandOpts{PrivateWrites: true}))
	default:
		return nil, fmt.Errorf("serve: unknown workload %q (valid: %v)", cfg.Workload, Workloads())
	}
	if err != nil {
		return nil, fmt.Errorf("serve: job %d %v", i, err)
	}
	j.Index = i
	return &j, nil
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
