package machine

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/transport"
)

// This file is the machine side of the job lifecycle: packing a job's
// threads into the JobSpec control frame on the driver, and installing a
// received JobSpec into a part's slot pool on a node. Every
// run is a job: a ClusterRun is job 0, a serve session one job per
// arrival. DESIGN.md §7 describes the protocol (submit → ack barrier →
// inject → halts → retire).

// BuildJob validates a job's threads and packs them into the JobSpec wire
// form, as threads 0..len(threads)-1 of the slot pool: programs in their
// 32-bit ISA encoding, each instruction verified to survive the wire (an
// immediate that overflows its field would silently execute differently
// on the far side), initial registers, and the job's initial memory image.
// An in-process Machine installs the threads themselves, not this form,
// but every job passes these checks, so both transports refuse the same.
func BuildJob(job int, threads []ThreadSpec, mem map[uint32]uint32) (*transport.JobSpec, error) {
	if len(threads) == 0 {
		return nil, fmt.Errorf("machine: job %d has no threads", job)
	}
	if err := validateSpecs(threads); err != nil {
		return nil, err
	}
	spec := &transport.JobSpec{Job: job, Programs: make([][]uint32, len(threads)), Regs: make([]map[int]uint32, len(threads)), Mem: mem}
	for t := range threads {
		prog := threads[t].Program
		if len(prog) == 0 {
			return nil, fmt.Errorf("machine: thread %d has an empty program", t)
		}
		spec.Programs[t] = make([]uint32, len(prog))
		for i, in := range prog {
			w := in.Encode()
			back, err := isa.Decode(w)
			if err != nil || back != in {
				return nil, fmt.Errorf("machine: thread %d instruction %d (%v) does not survive the wire encoding", t, i, in)
			}
			spec.Programs[t][i] = w
		}
		spec.Regs[t] = threads[t].Regs
	}
	return spec, nil
}

// decodeProgram is the node-side inverse of one BuildJob program.
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

// ApplyJob installs a received JobSpec into this part's slots 0..n-1 and
// preloads the job's memory image (keeping only the addresses this part
// homes). It decodes and checks the job on the caller's goroutine, then
// installs it (install); on a node the coordinator link's reader calls it
// before any of the job's contexts can arrive.
func (p *Part) ApplyJob(js *transport.JobSpec) error {
	if len(js.Regs) != len(js.Programs) {
		return fmt.Errorf("machine: job %d carries %d programs and %d reg maps",
			js.Job, len(js.Programs), len(js.Regs))
	}
	specs := make([]ThreadSpec, len(js.Programs))
	for t, words := range js.Programs {
		prog, err := decodeProgram(words)
		if err != nil {
			return fmt.Errorf("machine: job %d thread %d: %v", js.Job, t, err)
		}
		if len(prog) == 0 {
			return fmt.Errorf("machine: slot %d: empty program", t)
		}
		specs[t] = ThreadSpec{Program: prog, Regs: js.Regs[t]}
	}
	if err := validateSpecs(specs); err != nil {
		return err
	}
	return p.install(specs, js.Mem, nil)
}
