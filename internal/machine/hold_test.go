package machine

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/transport"
)

// earlyTransport is a Local whose queue also carries what only a peer node
// sends — memory requests and lease write-updates — and which hands the
// answers to those requests to the test.
type earlyTransport struct {
	*transport.Local
	mu      sync.Mutex
	peer    []transport.Arrival
	answers chan transport.MemReply
}

// fromPeer queues a as if a peer's frame had just arrived. It wakes
// nothing: the test's next send does.
func (e *earlyTransport) fromPeer(a transport.Arrival) {
	e.mu.Lock()
	e.peer = append(e.peer, a)
	e.mu.Unlock()
}

func (e *earlyTransport) Take(dst []transport.Arrival) []transport.Arrival {
	out := e.Local.Take(dst)
	e.mu.Lock()
	out = append(out, e.peer...)
	e.peer = e.peer[:0]
	e.mu.Unlock()
	return out
}

func (e *earlyTransport) Answer(_ *transport.Arrival, rep transport.MemReply) error {
	e.answers <- rep
	return nil
}

// TestEarlyArrivalsHeldUntilInstall: a migration, a read of a preloaded
// word and a write-update reach a part before its job is installed, as a
// peer's frames can outrun this node's one-way submit. The part holds
// them: nothing lands while no job is installed (landing would panic on
// the empty slot, and the read would find no word), and the install lets
// them all land — the read returns the preloaded value and the
// write-update meets no lease, a no-op. After the job retires, a context
// that arrives late is held the same way until the next job.
func TestEarlyArrivalsHeldUntilInstall(t *testing.T) {
	t.Parallel()
	tr := &earlyTransport{Local: transport.NewLocal(4, 1), answers: make(chan transport.MemReply, 1)}
	part, err := NewPart(Config{Mesh: geom.NewMesh(2, 2), Placement: placement.NewStriped(64, 4)}, tr)
	if err != nil {
		t.Fatal(err)
	}
	halts := make(chan transport.HaltMsg, 1)
	if err := part.StartServe(1, func(h transport.HaltMsg) { halts <- h }); err != nil {
		t.Fatal(err)
	}
	defer part.Stop()
	threads := []ThreadSpec{{Program: []isa.Instr{{Op: isa.HALT}}, Regs: map[int]uint32{5: 9}}}
	mem := map[uint32]uint32{64: 0x1234} // homed at core 1 under striped:64
	var spec transport.JobSpec
	for job := range 2 {
		tr.fromPeer(transport.Arrival{Kind: transport.FrameMemReq, Dst: 1,
			Req: transport.MemRequest{Thread: 0, Op: transport.OpRead, Addr: 64, From: 3}})
		tr.fromPeer(transport.Arrival{Kind: transport.FrameLeaseInval, Dst: 2,
			Inv: transport.LeaseInval{Dst: 2, Addr: 64, Value: 7}})
		// Thread 0 migrating in as a guest of core 1; its send wakes the
		// executor.
		if err := tr.SendMigration(1, transport.Context{Thread: 0, Native: 0}); err != nil {
			t.Fatal(err)
		}
		for range 20 {
			runtime.Gosched()
			if s, _ := part.Sample(); s.Guests[1] != 0 || len(tr.answers) != 0 {
				t.Fatalf("job %d: an arrival landed before its job was installed", job)
			}
		}
		encodeJob(&spec, job, threads, mem)
		if err := part.ApplyJob(&spec); err != nil {
			t.Fatal(err)
		}
		select {
		case rep := <-tr.answers:
			if rep.Value != 0x1234 {
				t.Fatalf("job %d: the held read returned %#x, want the preloaded 0x1234", job, rep.Value)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d: the held read was never served", job)
		}
		select {
		case h := <-halts:
			if h.Thread != 0 {
				t.Fatalf("job %d: halt of thread %d", job, h.Thread)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d: the held migration never ran", job)
		}
		if v, _ := part.Peek(64); v != 0x1234 {
			t.Fatalf("job %d: word 64 = %#x after the write-update, want 0x1234", job, v)
		}
		part.RetireJob(transport.JobDone{Job: job})
	}
}

// TestServedLitmusBatteryOnFourNodes serves the seeded litmus battery as
// back-to-back jobs on one 4-node loopback cluster, a node per core, so a
// peer's migration, remote access or write-update for job k+1 often
// reaches a node before that node has read job k+1's submit. Every job
// must be SC-clean from its retired events and pass its own check.
func TestServedLitmusBatteryOnFourNodes(t *testing.T) {
	t.Parallel()
	man, join, err := Loopback(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{GuestContexts: 2, Quantum: 8, LogEvents: true, Timeout: 30 * time.Second}
	cl, err := LoadCluster(man, cfg.LoadSpec(4), cfg.Timeout)
	if err != nil {
		t.Fatal(err)
	}
	lits := []Litmus{MessagePassingLitmus(64), StoreBufferingLitmus(64), AtomicCounterLitmus(4, 10)}
	for seed := range sized(12, 3) {
		lits = append(lits,
			RandomLitmus(uint64(seed), RandOpts{}),
			RandomLitmus(uint64(seed), RandOpts{Threads: 4, Ops: 6, Iters: 6, Addrs: 2}),
			RandomLitmus(uint64(seed), RandOpts{PrivateWrites: true, Threads: 4}))
	}
	for job, lit := range lits {
		halts, err := cl.RunJob(job, lit.Threads, lit.Mem, cfg.Timeout)
		if err != nil {
			t.Fatalf("job %d (%s): %v", job, lit.Name, err)
		}
		reps, err := cl.Collect(cfg.Timeout)
		if err != nil {
			t.Fatal(err)
		}
		events, err := cl.RetireJob(transport.JobDone{Job: job}, cfg.Timeout)
		if err != nil {
			t.Fatal(err)
		}
		all := MergeCollect(reps)
		res := &ClusterResult{Result: newResult(all, halts), Mem: all.Mem}
		res.Events = events
		if err := lit.Verify(res); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
	}
	cl.Close()
	if err := joinWithin(t, join, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestServedJobWirePin pins a served job's control traffic on a 2-node
// loopback cluster. RunJob is one coordinator write per node — the
// one-way submit and the job's injections together — and the coordinator
// hears only the halts; the retire is one write per node, answered once
// by each. Heartbeats, the one unsolicited frame besides halts, are
// counted out.
func TestServedJobWirePin(t *testing.T) {
	t.Parallel()
	man, join, err := Loopback(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := LoadCluster(man, ClusterConfig{}.LoadSpec(4), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	co := cl.(*TCPCluster)
	beats := func() (n int64) {
		for _, hb := range co.Heartbeats() {
			n += int64(hb.Seq)
		}
		return n
	}
	lits := []Litmus{StoreBufferingLitmus(64), MessagePassingLitmus(64), AtomicCounterLitmus(3, 5), RandomLitmus(1, RandOpts{Threads: 4})}
	for job := range 12 {
		lit := lits[job%len(lits)]
		before, hb := co.NetStats(), beats()
		if _, err := cl.RunJob(job, lit.Threads, lit.Mem, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		run := co.NetStats().Sub(before)
		if want := int64(len(man.Nodes)); run.BatchesSent != want {
			t.Errorf("job %d: RunJob wrote %d batches, want one per node (%d)", job, run.BatchesSent, want)
		}
		if want := int64(len(man.Nodes) + len(lit.Threads)); run.MsgsSent != want {
			t.Errorf("job %d: RunJob sent %d frames, want a submit per node and an injection per thread (%d)", job, run.MsgsSent, want)
		}
		if got, want := run.MsgsRecv-(beats()-hb), int64(len(lit.Threads)); got != want {
			t.Errorf("job %d: RunJob received %d frames besides heartbeats, want the %d halts alone", job, got, want)
		}
		before, hb = co.NetStats(), beats()
		if _, err := cl.RetireJob(transport.JobDone{Job: job}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		retire := co.NetStats().Sub(before)
		if want := int64(len(man.Nodes)); retire.BatchesSent != want || retire.MsgsRecv-(beats()-hb) != want {
			t.Errorf("job %d: the retire wrote %d batches and received %d frames, want %d of each",
				job, retire.BatchesSent, retire.MsgsRecv, want)
		}
	}
	cl.Close()
	if err := joinWithin(t, join, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}
