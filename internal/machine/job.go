package machine

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/transport"
)

// This file is the machine side of the serve job lifecycle: packing a
// job's threads into the JobSpec control frame on the coordinator, and
// installing a received JobSpec into a serving part's slot pool on a node.
// DESIGN.md §7 describes the protocol (submit → ack barrier → inject →
// halts → retire).

// BuildJob packs a job's threads into the JobSpec wire form: slot
// assignments, programs in their 32-bit ISA encoding (validated to survive
// the wire, like a LoadSpec's), initial registers, and the job's initial
// memory image.
func BuildJob(job int, slots []int, threads []ThreadSpec, mem map[uint32]uint32) (*transport.JobSpec, error) {
	if len(slots) != len(threads) {
		return nil, fmt.Errorf("machine: job %d has %d slots for %d threads", job, len(slots), len(threads))
	}
	if len(threads) == 0 {
		return nil, fmt.Errorf("machine: job %d has no threads", job)
	}
	programs, regs, err := packThreads(threads)
	if err != nil {
		return nil, err
	}
	return &transport.JobSpec{Job: job, Slots: slots, Programs: programs, Regs: regs, Mem: mem}, nil
}

// decodeProgram is the node-side inverse of one packThreads program.
func decodeProgram(words []uint32) ([]isa.Instr, error) {
	prog := make([]isa.Instr, len(words))
	for i, w := range words {
		in, err := isa.Decode(w)
		if err != nil {
			return nil, fmt.Errorf("machine: instruction %d: %v", i, err)
		}
		prog[i] = in
	}
	return prog, nil
}

// ApplyJob installs a received JobSpec into this part's serve slots and
// preloads the job's memory image (keeping only the addresses this part
// homes). It runs synchronously on the transport's control-plane reader,
// before any of the job's contexts can arrive.
func (p *Part) ApplyJob(js *transport.JobSpec) error {
	if len(js.Programs) != len(js.Slots) || len(js.Regs) != len(js.Slots) {
		return fmt.Errorf("machine: job %d carries %d programs and %d reg maps for %d slots",
			js.Job, len(js.Programs), len(js.Regs), len(js.Slots))
	}
	for i, words := range js.Programs {
		prog, err := decodeProgram(words)
		if err != nil {
			return fmt.Errorf("machine: job %d slot %d: %v", js.Job, js.Slots[i], err)
		}
		if err := p.SetThread(js.Slots[i], ThreadSpec{Program: prog, Regs: js.Regs[i]}); err != nil {
			return err
		}
	}
	//em2:unordered-ok: Preload writes each address into its home shard's map; the final image is order-independent
	for a, v := range js.Mem {
		p.Preload(a, v, 0)
	}
	return nil
}
