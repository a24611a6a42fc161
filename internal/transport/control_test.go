package transport_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/transport"
)

// TestControlPlaneRoundTrip exercises the sharded control plane end to
// end on one real Node/Coordinator pair: the load-ack barrier, the async
// heartbeat, the job-retirement barrier with reclaimed events, and the
// chunked incremental collect — each of the v2 control frames that keep
// the coordinator off the critical path.
func TestControlPlaneRoundTrip(t *testing.T) {
	man, err := transport.LocalManifest(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	retEvents := []transport.Event{
		{Thread: 0, TSeq: 1, Addr: 4096, Kind: transport.EvWrite, Wrote: 7, Seq: 1, Home: 0},
		{Thread: 1, TSeq: 1, Addr: 4100, Kind: transport.EvRead, Read: 7, Seq: 2, Home: 1},
	}
	chunks := []transport.CollectChunk{
		{Node: 0, PerCore: &transport.CoreMetrics{Core: 0, Instructions: 5}, Mem: map[uint32]uint32{8192: 1}},
		{Node: 0, PerCore: &transport.CoreMetrics{Core: 1, Instructions: 6},
			Events: []transport.Event{{Thread: 2, Addr: 8192, Seq: 3, Home: 1}},
			Mem:    map[uint32]uint32{8196: 2}},
		{Node: 0, Done: true, Counters: map[string]int64{"instructions": 11},
			Net: &transport.NetStats{MsgsSent: 99}},
	}

	errs := make(chan error, 1)
	go func() {
		errs <- func() error {
			n, err := transport.ListenNode(man, 0)
			if err != nil {
				return err
			}
			defer n.Close()
			spec := <-n.Loads()
			n.Prepare(spec.NumThreads)
			n.HandleMem(func(geom.CoreID, transport.MemRequest) transport.MemReply { return transport.MemReply{} })
			n.HandleJob(func(*transport.JobSpec) error { return nil })
			n.HandleJobDone(func(d transport.JobDone) transport.JobRetired {
				ret := transport.JobRetired{Job: d.Job, Node: 0}
				if d.Reclaim {
					if d.Base != 4096 || d.Size != 4096 {
						ret.Err = fmt.Sprintf("unexpected region [%d,+%d)", d.Base, d.Size)
						return ret
					}
					ret.Events, ret.Words = retEvents, len(retEvents)
				}
				return ret
			})
			n.Ready()
			if err := n.SendLoadAck(transport.LoadAck{Node: 0}); err != nil {
				return err
			}
			n.StartHeartbeat(5 * time.Millisecond)
			<-n.CollectRequests()
			for _, ch := range chunks {
				if err := n.SendCollectChunk(ch); err != nil {
					return err
				}
			}
			<-n.ShutdownC()
			return nil
		}()
	}()

	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Load(&transport.LoadSpec{NumThreads: 4, Serve: true}); err != nil {
		t.Fatal(err)
	}
	if err := co.AwaitLoadAcks(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The retirement barrier returns the reclaimed events.
	got, err := co.RetireJob(transport.JobDone{Job: 3, Slots: []int{0, 1}, Base: 4096, Size: 4096, Reclaim: true}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, retEvents) {
		t.Fatalf("retired events = %+v, want %+v", got, retEvents)
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

	// Chunked collect reassembles into the same CollectReply shape the
	// barrier protocol produced.
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
	if rep.Counters["instructions"] != 11 || rep.Net == nil || rep.Net.MsgsSent != 99 {
		t.Fatalf("assembled aggregates: counters=%+v net=%+v", rep.Counters, rep.Net)
	}

	co.Shutdown()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestLoadAckSurfacesNodeError pins the silent-load-failure fix at the
// transport layer: a node that rejects its LoadSpec reports the actual
// message through the ack barrier, not a bare connection death.
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
		n.SendLoadAck(transport.LoadAck{Node: 0, Err: "unknown scheme \"bogus\""})
		n.Close() // exit like a failed node process would
	}()

	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Load(&transport.LoadSpec{NumThreads: 1}); err != nil {
		t.Fatal(err)
	}
	err = co.AwaitLoadAcks(10 * time.Second)
	if err == nil {
		t.Fatal("AwaitLoadAcks succeeded despite a node load failure")
	}
	if !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("load failure surfaced as %q, want the node's actual error", err)
	}
}
