package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/transport"
)

// stubControl is a scripted ControlHandler: it records the retirement it
// was asked for and answers every request from fixed data.
type stubControl struct {
	retired chan transport.JobDone // nil: retirements go unrecorded
	events  []transport.Event
	sample  transport.Sample
	chunks  []transport.Reply
	// collectErr, when set, fails the collect stream after its chunks —
	// the node then drops its coordinator link.
	collectErr error
}

// ApplyJob accepts every job with a job number of 0 or more.
func (s *stubControl) ApplyJob(js *transport.JobSpec) error {
	if js.Job < 0 {
		return fmt.Errorf("stub refuses job %d", js.Job)
	}
	return nil
}

func (s *stubControl) RetireJob(d transport.JobDone) []transport.Event {
	if s.retired != nil {
		s.retired <- d
	}
	return s.events
}

func (s *stubControl) Sample() (transport.Sample, error) { return s.sample, nil }

func (s *stubControl) CollectChunked(emit func(transport.Reply) error) error {
	for _, r := range s.chunks {
		if err := emit(r); err != nil {
			return err
		}
	}
	if s.collectErr != nil {
		return s.collectErr
	}
	return emit(transport.Reply{})
}

// serveStub runs node idx of man with ctl as its control handler: load,
// open the data plane, answer the load, heartbeat, and wait for shutdown.
// It returns the node's exit error on the channel.
func serveStub(man transport.Manifest, idx int, ctl transport.ControlHandler) <-chan error {
	errs := make(chan error, 1)
	go func() {
		errs <- func() error {
			n, err := transport.ListenNode(man, idx)
			if err != nil {
				return err
			}
			defer n.Close()
			spec := <-n.Loads()
			n.Prepare(spec.NumThreads)
			n.HandleMem(func(geom.CoreID, transport.MemRequest) transport.MemReply { return transport.MemReply{} })
			n.HandleControl(ctl)
			n.Ready()
			if err := n.SendReply(transport.Reply{}); err != nil {
				return err
			}
			n.StartHeartbeat(5 * time.Millisecond)
			<-n.ShutdownC()
			return nil
		}()
	}()
	return errs
}

// TestControlPlaneRoundTrip exercises the control plane end to end on one
// real Node/Coordinator pair: the load barrier, the async heartbeat, the
// job-retirement barrier with drained events, the sample request, and
// the chunked collect folded into one reply per node.
func TestControlPlaneRoundTrip(t *testing.T) {
	man, err := transport.LocalManifest(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctl := &stubControl{
		retired: make(chan transport.JobDone, 1),
		events: []transport.Event{
			{Thread: 0, TSeq: 1, Addr: 4096, Kind: transport.EvWrite, Wrote: 7, Seq: 1, Home: 0},
			{Thread: 1, TSeq: 1, Addr: 4100, Kind: transport.EvRead, Read: 7, Seq: 2, Home: 1},
		},
		sample: transport.Sample{
			PerCore: []transport.CoreMetrics{{Core: 1, Instructions: 6}, {Core: 0, Instructions: 5}},
			Guests:  []int64{1, 0},
			Words:   3,
		},
		chunks: []transport.Reply{
			{PerCore: []transport.CoreMetrics{{Core: 0, Instructions: 5}}, Mem: map[uint32]uint32{8192: 1}, More: true},
			{PerCore: []transport.CoreMetrics{{Core: 1, Instructions: 6}},
				Events: []transport.Event{{Thread: 2, Addr: 8192, Seq: 3, Home: 1}},
				Mem:    map[uint32]uint32{8196: 2}, More: true},
		},
	}
	errs := serveStub(man, 0, ctl)

	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Load(&transport.LoadSpec{NumThreads: 4}, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// The retirement barrier hands the node the JobDone and returns the
	// drained events.
	done := transport.JobDone{Job: 3}
	got, err := co.RetireJob(done, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d := <-ctl.retired; !reflect.DeepEqual(d, done) {
		t.Fatalf("node retired %+v, want %+v", d, done)
	}
	if !reflect.DeepEqual(got, ctl.events) {
		t.Fatalf("retired events = %+v, want %+v", got, ctl.events)
	}

	// A sample comes back re-sorted by core, gauges aligned, with wire
	// counters stamped.
	s, err := co.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.PerCore) != 2 || s.PerCore[0].Core != 0 || s.PerCore[1].Core != 1 ||
		!reflect.DeepEqual(s.Guests, []int64{0, 1}) || s.Words != 3 || s.Net.MsgsSent == 0 {
		t.Fatalf("sample = %+v", s)
	}

	// Heartbeats flow with no request: the coordinator only has to look.
	//em2:wallclock-ok: the poll waits for a real heartbeat on a real socket
	deadline := time.Now().Add(10 * time.Second)
	for {
		if hbs := co.Heartbeats(); len(hbs) == 1 && hbs[0].Node == 0 && hbs[0].Seq >= 1 {
			break
		}
		if time.Now().After(deadline) { //em2:wallclock-ok: the poll waits for a real heartbeat on a real socket
			t.Fatalf("no heartbeat observed; have %+v", co.Heartbeats())
		}
		time.Sleep(5 * time.Millisecond) //em2:wallclock-ok: the poll waits for a real heartbeat on a real socket
	}

	// The chunked collect reassembles into one CollectReply per node, the
	// last reply stamping the node's wire counters.
	reps, err := co.Collect(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("collect returned %d replies", len(reps))
	}
	rep := reps[0]
	if rep.Node != 0 || len(rep.PerCore) != 2 || rep.PerCore[0].Instructions != 5 || rep.PerCore[1].Instructions != 6 {
		t.Fatalf("assembled per-core = %+v", rep.PerCore)
	}
	if len(rep.Events) != 1 || rep.Events[0].Thread != 2 {
		t.Fatalf("assembled events = %+v", rep.Events)
	}
	if !reflect.DeepEqual(rep.Mem, map[uint32]uint32{8192: 1, 8196: 2}) {
		t.Fatalf("assembled mem = %+v", rep.Mem)
	}
	if rep.Net == nil || rep.Net.MsgsSent == 0 {
		t.Fatalf("assembled wire counters = %+v", rep.Net)
	}

	co.Shutdown()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestLoadAckSurfacesNodeError pins the silent-load-failure fix at the
// transport layer: a node that rejects its LoadSpec reports the actual
// message through the load barrier, not a bare connection death. The
// coordinator then refuses every later request, since the failed barrier
// may still have answers in flight.
func TestLoadAckSurfacesNodeError(t *testing.T) {
	man, err := transport.LocalManifest(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		n, err := transport.ListenNode(man, 0)
		if err != nil {
			return
		}
		<-n.Loads()
		//em2:errsink-ok: a failed send shows as the missing node error the test asserts
		n.SendReply(transport.Reply{Err: "unknown scheme \"bogus\""})
		n.Close() // exit like a failed node process would
	}()

	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	err = co.Load(&transport.LoadSpec{NumThreads: 1}, 10*time.Second)
	if err == nil {
		t.Fatal("Load succeeded despite a node load failure")
	}
	if !strings.Contains(err.Error(), "node 0 failed: unknown scheme") {
		t.Fatalf("load failure surfaced as %q, want the node's actual error", err)
	}
	if _, err := co.Sample(); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("sample after a failed load = %v, want a refusal", err)
	}
}

// TestCollectDeathNamesNode: a node whose collect stream breaks after some
// of its chunks drops the link, and the collect barrier reports the lost
// node at once instead of delivering a partial reply.
func TestCollectDeathNamesNode(t *testing.T) {
	man, err := transport.LocalManifest(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctl := &stubControl{
		chunks:     []transport.Reply{{PerCore: []transport.CoreMetrics{{Core: 0}}, More: true}},
		collectErr: errors.New("disk on fire"),
	}
	errs := serveStub(man, 0, ctl)
	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Load(&transport.LoadSpec{NumThreads: 1}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Collect(10 * time.Second); err == nil || !strings.Contains(err.Error(), "connection to node 0 lost") {
		t.Fatalf("collect with a broken stream = %v, want the node's death", err)
	}
	// The stub's load reply may report the link's teardown: a send that
	// takes the flusher role also writes the chunk queued behind it.
	<-errs
}

// TestSampleRefusesMissingGuestGauges: a node sample with fewer guest
// gauges than per-core rows is refused, naming the node. The merge used to
// read each missing gauge as 0, hiding the guest-pool drift the soak
// checks.
func TestSampleRefusesMissingGuestGauges(t *testing.T) {
	man, err := transport.LocalManifest(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctl := &stubControl{sample: transport.Sample{
		PerCore: []transport.CoreMetrics{{Core: 0}, {Core: 1}},
		Guests:  []int64{1},
	}}
	errs := serveStub(man, 0, ctl)
	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Load(&transport.LoadSpec{NumThreads: 1}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	_, err = co.Sample()
	if err == nil || !strings.Contains(err.Error(), "node 0 sent 1 guest gauges for 2 cores") {
		t.Fatalf("sample with a missing guest gauge = %v, want node 0's reply refused", err)
	}
	co.Shutdown()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// controlBody is the codec every control body type has.
type controlBody interface {
	AppendWire([]byte) []byte
	DecodeWire([]byte) error
}

// newControlBody returns a fresh decode target for kind's body, nil for a
// kind without one.
func newControlBody(kind transport.FrameKind) controlBody {
	switch kind {
	case transport.FrameLoad:
		return new(transport.LoadSpec)
	case transport.FrameJobSubmit:
		return new(transport.JobSpec)
	case transport.FrameJobDone:
		return new(transport.JobDone)
	case transport.FrameHalt:
		return new(transport.HaltMsg)
	case transport.FrameHeartbeat:
		return new(transport.Heartbeat)
	case transport.FrameReply:
		return new(transport.Reply)
	}
	return nil
}

// controlSample is one control body and the frame kind that carries it.
type controlSample struct {
	name string
	kind transport.FrameKind
	body controlBody
}

// sampleEvents returns n distinct retire-reply events.
func sampleEvents(n int) []transport.Event {
	es := make([]transport.Event, n)
	for i := range es {
		es[i] = transport.Event{Thread: i % 4, TSeq: int64(i), Addr: 4096 + 4*uint32(i), Kind: transport.EventKind(i % 3),
			Read: uint32(i), Wrote: uint32(i + 1), Seq: int64(100 + i), Home: geom.CoreID(i % 2)}
	}
	return es
}

// sampleControl covers every control body type with realistic values,
// every optional part and flag set somewhere. Empty lists are nil: that is
// what they decode as.
func sampleControl() []controlSample {
	halt := transport.HaltMsg{Thread: 5, Cycles: 1 << 40, Msgs: 17}
	for i := range halt.Regs {
		halt.Regs[i] = 0xC0DE0000 + uint32(i)
	}
	return []controlSample{
		{"load", transport.FrameLoad, &transport.LoadSpec{GuestContexts: 2, Quantum: 64, Scheme: "history:2",
			Placement: "striped:64", LogEvents: true, NumThreads: 4}},
		{"job submit", transport.FrameJobSubmit, &transport.JobSpec{Job: 7,
			Programs: [][]uint32{{0x01020304, 0xFFFFFFFF, 0}, {42}},
			Regs:     []map[int]uint32{{1: 5, 3: 9, 31: 1}, nil},
			Mem:      map[uint32]uint32{4096: 1, 4100: 0, 1 << 31: 7}}},
		{"job done", transport.FrameJobDone, &transport.JobDone{Job: 7}},
		{"halt", transport.FrameHalt, &halt},
		{"heartbeat", transport.FrameHeartbeat, &transport.Heartbeat{Node: 1, Seq: 3}},
		{"ack with error", transport.FrameReply, &transport.Reply{Job: 7, Err: "unknown scheme \"bogus\""}},
		{"retire reply", transport.FrameReply, &transport.Reply{Job: 7, Events: sampleEvents(3)}},
		{"sample reply", transport.FrameReply, &transport.Reply{Sample: &transport.Sample{Cycle: 9000,
			PerCore: []transport.CoreMetrics{{Core: 1, Instructions: 6, LocalOps: 2, RemoteReads: 1, RemoteWrites: 1,
				Migrations: 3, Evictions: 1, ContextFlits: 40, LeaseHits: 2, LeaseMisses: 1, LeaseInvals: 1, Overcommits: 1}},
			Guests: []int64{1}, Words: 12, Events: 4,
			Net: transport.NetStats{BatchesSent: 1, MsgsSent: 2, BytesSent: 3, BatchesRecv: 4, MsgsRecv: 5, BytesRecv: 6}}}},
		{"collect chunk", transport.FrameReply, &transport.Reply{
			PerCore: []transport.CoreMetrics{{Core: 0, Instructions: 5}},
			Events:  sampleEvents(2),
			Mem:     map[uint32]uint32{8192: 1, 8196: 2},
			More:    true,
			Net:     &transport.NetStats{MsgsSent: 9}}},
	}
}

// TestControlCodecRoundTrip: every control body decodes back to the value
// it was encoded from.
func TestControlCodecRoundTrip(t *testing.T) {
	t.Parallel()
	for _, s := range sampleControl() {
		b := s.body.AppendWire(nil)
		got := newControlBody(s.kind)
		if err := got.DecodeWire(b); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !reflect.DeepEqual(got, s.body) {
			t.Errorf("%s: decoded %+v, want %+v", s.name, got, s.body)
		}
	}
}

// TestSubmitIsOneWay: a job submit writes nothing until Flush, which
// carries it to the node in one write, and a node that accepts the job
// answers nothing — the next request gathers only its own replies. A
// node that refuses a job says so on Deaths, naming the node, and the
// coordinator then refuses every later submit and request.
func TestSubmitIsOneWay(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	errs := serveStub(man, 0, &stubControl{})
	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Load(&transport.LoadSpec{NumThreads: 1}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	spec := &transport.JobSpec{Job: 1, Programs: [][]uint32{{7}}, Regs: []map[int]uint32{nil}}
	before := co.NetStats()
	if err := co.SubmitJob(spec); err != nil {
		t.Fatal(err)
	}
	if sent := co.NetStats().Sub(before); sent.BatchesSent != 0 {
		t.Fatalf("SubmitJob wrote %d batches before Flush", sent.BatchesSent)
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	if sent := co.NetStats().Sub(before); sent.BatchesSent != 1 || sent.MsgsSent != 1 {
		t.Fatalf("the flushed submit took %d batches and %d frames, want 1 and 1", sent.BatchesSent, sent.MsgsSent)
	}
	if _, err := co.Sample(); err != nil {
		t.Fatalf("sample after an accepted submit: %v", err)
	}
	spec.Job = -1
	if err := co.SubmitJob(spec); err != nil {
		t.Fatal(err)
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-co.Deaths():
		if !strings.Contains(err.Error(), "job submit: node 0 failed: stub refuses job -1") {
			t.Fatalf("refusal = %v, want node 0's own message", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the refusal never reached Deaths")
	}
	if _, err := co.Sample(); err == nil || !strings.Contains(err.Error(), "refused after a failed request") {
		t.Fatalf("sample after a refused job = %v, want a refusal", err)
	}
	if err := co.SubmitJob(spec); err == nil || !strings.Contains(err.Error(), "stub refuses job -1") {
		t.Fatalf("submit after a refused job = %v, want a refusal carrying the first", err)
	}
	co.Shutdown()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestJobSpecDecodeReuses: a node decodes every job into one JobSpec.
// Decoding jobs of different shapes into it in turn gives each job's own
// value — it re-encodes to the same bytes, whose length wireBytes
// predicts — and a warm decode allocates nothing.
func TestJobSpecDecodeReuses(t *testing.T) {
	t.Parallel()
	big := &transport.JobSpec{Job: 1,
		Programs: [][]uint32{{1, 2, 3}, {4, 5}, {6}},
		Regs:     []map[int]uint32{{1: 1, 2: 2}, {3: 3}, nil},
		Mem:      map[uint32]uint32{0: 1, 4: 2, 8: 3}}
	small := &transport.JobSpec{Job: 2, Programs: [][]uint32{{9}}, Regs: []map[int]uint32{{5: 6}}}
	var kept transport.JobSpec
	for _, js := range []*transport.JobSpec{big, small, big, small} {
		b := js.AppendWire(nil)
		if len(b) != js.WireBytes() {
			t.Fatalf("job %d: %d bytes encoded, wireBytes %d", js.Job, len(b), js.WireBytes())
		}
		if err := kept.DecodeWire(b); err != nil {
			t.Fatal(err)
		}
		if back := kept.AppendWire(nil); !bytes.Equal(back, b) {
			t.Fatalf("job %d decoded into a reused spec re-encodes as %x, want %x", js.Job, back, b)
		}
	}
	b := big.AppendWire(nil)
	if n := testing.AllocsPerRun(100, func() { kept.DecodeWire(b) }); n != 0 {
		t.Errorf("a warm JobSpec decode: %.0f allocs, want 0", n)
	}
}
