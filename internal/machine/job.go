package machine

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/transport"
)

// This file is a job's two forms. Every Cluster runs a job as threads and
// a memory image; only a job that crosses a wire is encoded, by
// TCPCluster.RunJob into the JobSpec frame that a node's ApplyJob decodes.
// A ClusterRun is job 0, a serve session one job per arrival. DESIGN.md
// §7 describes the protocol (submit → ack barrier → inject → halts →
// retire).

// checkJob is the one refusal check of a job, run by every entry before
// it changes any state: a job needs a thread, every thread an
// instruction, and every initial register must be r1..r31 (the smallest
// bad one is reported, whatever the map order). It allocates only to
// refuse.
func checkJob(threads []ThreadSpec) error {
	if len(threads) == 0 {
		return fmt.Errorf("machine: job has no threads")
	}
	for t := range threads {
		if len(threads[t].Program) == 0 {
			return fmt.Errorf("machine: thread %d has an empty program", t)
		}
		bad, found := 0, false
		//em2:unordered-ok: the minimum of the bad registers is order-independent
		for r := range threads[t].Regs {
			if (r <= 0 || r >= isa.NumRegs) && (!found || r < bad) {
				bad, found = r, true
			}
		}
		if found {
			return fmt.Errorf("machine: thread %d: bad initial register r%d", t, bad)
		}
	}
	return nil
}

// checkWireJob is the Cluster entries' check: checkJob, and every
// instruction survives its 32-bit encoding (an immediate that overflows
// its field would execute differently on the far side), so both
// transports refuse the same jobs. Machine.Run and Part.Start, whose
// threads never leave the process, skip its per-instruction cost. It
// allocates only to refuse.
func checkWireJob(threads []ThreadSpec) error {
	if err := checkJob(threads); err != nil {
		return err
	}
	for t := range threads {
		for i, in := range threads[t].Program {
			if back, err := isa.Decode(in.Encode()); err != nil || back != in {
				return fmt.Errorf("machine: thread %d instruction %d (%v) does not survive the wire encoding", t, i, in)
			}
		}
	}
	return nil
}

// encodeJob packs a job that passed checkWireJob into its JobSpec, as
// threads 0..len(threads)-1 of the slot pool. TCPCluster.RunJob is its
// caller.
func encodeJob(job int, threads []ThreadSpec, mem map[uint32]uint32) *transport.JobSpec {
	spec := &transport.JobSpec{Job: job, Programs: make([][]uint32, len(threads)), Regs: make([]map[int]uint32, len(threads)), Mem: mem}
	for t := range threads {
		spec.Programs[t] = make([]uint32, len(threads[t].Program))
		for i, in := range threads[t].Program {
			spec.Programs[t][i] = in.Encode()
		}
		spec.Regs[t] = threads[t].Regs
	}
	return spec
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
		specs[t] = ThreadSpec{Program: make([]isa.Instr, len(words)), Regs: js.Regs[t]}
		for i, w := range words {
			in, err := isa.Decode(w)
			if err != nil {
				return fmt.Errorf("machine: job %d thread %d instruction %d: %v", js.Job, t, i, err)
			}
			specs[t].Program[i] = in
		}
	}
	if err := checkJob(specs); err != nil {
		return err
	}
	return p.install(specs, js.Mem, nil)
}
