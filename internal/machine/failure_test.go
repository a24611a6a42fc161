package machine

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/transport"
)

// spinForever reads an address that is never written and loops until it
// becomes non-zero — a thread that can only end when the run is torn down.
func spinForever() []isa.Instr {
	return isa.MustAssemble(`
	spin:
		lw   r1, 128(r0)
		beq  r1, r0, spin
		halt
	`)
}

// TestNodeDeathFailsLoudly kills one node process mid-run and requires
// ClusterRun.Run to fail promptly via the death channel, not bleed out into
// its timeout: the old halt loop only selected on halts and the timer, so
// a dead node meant a full-timeout silent hang.
func TestNodeDeathFailsLoudly(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := man.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	cmds := make([]*exec.Cmd, len(man.Nodes))
	for i := range man.Nodes {
		cmds[i] = reexecNode(path, i)
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func(c *exec.Cmd) func() {
			return func() { c.Process.Kill(); c.Wait() }
		}(cmds[i]))
	}

	runErr := make(chan error, 1)
	go func() {
		_, err := ClusterRun{Manifest: man, Config: ClusterConfig{Timeout: 60 * time.Second},
			Threads: []ThreadSpec{{Program: spinForever()}}}.Run()
		runErr <- err
	}()

	// Let the run dial, load and start spinning, then kill the far node.
	//em2:wallclock-ok: failure-injection test waits on real process startup before killing it
	time.Sleep(1 * time.Second)
	cmds[1].Process.Kill()

	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("ClusterRun.Run succeeded with a dead node and a thread that never halts")
		}
		if !strings.Contains(err.Error(), "cluster run failed") {
			t.Fatalf("node death surfaced as %q, want a loud cluster-run failure", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("ClusterRun.Run did not notice the dead node within 15s (timeout bleed-out)")
	}
}

// stubJobs is a fake node's control handler: it accepts every job,
// signalling applied, and when the collect request arrives it closes
// collected and fails the stream, which drops the node's coordinator link.
// With early set, ApplyJob first reports a HALT for each thread in it on
// tn, so those halts precede the submit's reply on the wire.
type stubJobs struct {
	applied, collected chan struct{}
	early              []int
	tn                 *transport.Node
}

func newStubJobs() *stubJobs {
	return &stubJobs{applied: make(chan struct{}, 1), collected: make(chan struct{})}
}

func (s *stubJobs) ApplyJob(*transport.JobSpec) error {
	for _, th := range s.early {
		_ = s.tn.SendHalt(transport.HaltMsg{Thread: th}) //em2:errsink-ok: stub node; coordinator teardown is the condition under test
	}
	s.applied <- struct{}{}
	return nil
}

func (s *stubJobs) RetireJob(transport.JobDone) []transport.Event { return nil }

func (s *stubJobs) Sample() (transport.Sample, error) { return transport.Sample{}, nil }

func (s *stubJobs) CollectChunked(func(transport.Reply) error) error {
	close(s.collected)
	return fmt.Errorf("stub node dies at collect")
}

// stubNode runs node 0 of man as a fake node: load, accept job 0, then
// report a HALT for each thread in halts.
func stubNode(t *testing.T, man transport.Manifest, ctl *stubJobs, halts func(numThreads int) []int) {
	tn, err := transport.ListenNode(man, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tn.Close() })
	ctl.tn = tn
	go func() {
		spec := <-tn.Loads()
		tn.Prepare(spec.NumThreads)
		tn.HandleControl(ctl)
		tn.Ready()
		// Stub node: a failed send just means the coordinator tore down
		// first, which the barrier under test then reports.
		_ = tn.SendReply(transport.Reply{}) //em2:errsink-ok: stub node; coordinator teardown is the condition under test
		select {
		case <-ctl.applied:
		case <-tn.ShutdownC():
			return
		}
		for _, th := range halts(spec.NumThreads) {
			_ = tn.SendHalt(transport.HaltMsg{Thread: th}) //em2:errsink-ok: stub node; coordinator teardown is the condition under test
		}
	}()
}

// TestClusterRunRejectsBogusHalts drives ClusterRun.Run against a fake node
// (a bare transport endpoint) that accepts the job, then reports malformed
// HALTs. A duplicate
// report must not satisfy the halt count on behalf of a thread that never
// finished, and an out-of-range thread id must be rejected outright. Sent
// before the submit's reply, the duplicates must still reach the halt
// barrier: a coordinator reader that blocked on its halt queue never read
// the reply, and the submit timed out instead.
func TestClusterRunRejectsBogusHalts(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name         string
		halts, early []int
		want         string
	}{
		{"duplicate", []int{0, 0}, nil, "duplicate halt report for thread 0"},
		{"unknown-thread", []int{7}, nil, "unknown thread 7"},
		{"duplicate-before-reply", nil, []int{0, 0}, "duplicate halt report for thread 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			man, err := transport.LocalManifest(1, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			ctl := newStubJobs()
			ctl.early = tc.early
			stubNode(t, man, ctl, func(int) []int { return tc.halts })
			lit := StoreBufferingLitmus(64)
			_, err = ClusterRun{Manifest: man, Config: ClusterConfig{Timeout: 10 * time.Second}, Threads: lit.Threads, Mem: lit.Mem}.Run()
			if err == nil {
				t.Fatal("ClusterRun accepted bogus halt reports")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestClusterRunNodeDiesDuringCollect drives ClusterRun.Run against a fake
// node that loads, accepts the job, reports every halt, and then drops its
// connection when the collect request arrives. The collect barrier must
// report the death at once and name the node: it used to select on
// replies and its timer only, so a node lost after the halt barrier cost
// the full timeout and an error ("collect: 0 of 1 nodes replied") that
// named nobody.
func TestClusterRunNodeDiesDuringCollect(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctl := newStubJobs()
	stubNode(t, man, ctl, func(n int) []int {
		all := make([]int, n)
		for th := range all {
			all[th] = th
		}
		return all
	})
	lit := StoreBufferingLitmus(64)
	start := time.Now() //em2:wallclock-ok: the test's subject is how long a failure takes to surface
	_, err = ClusterRun{Manifest: man, Config: ClusterConfig{Timeout: 10 * time.Second}, Threads: lit.Threads, Mem: lit.Mem}.Run()
	if err == nil || !strings.Contains(err.Error(), "connection to node 0 lost") {
		t.Fatalf("got error %v, want the collect barrier to name the lost node", err)
	}
	if took := time.Since(start); took > 5*time.Second { //em2:wallclock-ok: see above
		t.Fatalf("node death during collect took %v to surface (timeout bleed-out)", took)
	}
	select {
	case <-ctl.collected:
	default:
		t.Fatal("the node died before the collect request reached it")
	}
}

// TestServeNodeReportsLoadError drives a real ServeNode with a LoadSpec
// only the node can reject and requires the coordinator to receive the
// node's actual error message through the ack barrier — before this fix
// the node process just exited and the coordinator saw a bare connection
// death. The same failure must come back from the Loopback join, naming
// the node.
func TestServeNodeReportsLoadError(t *testing.T) {
	t.Parallel()
	man, join, err := Loopback(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	err = co.Load(&transport.LoadSpec{Scheme: "bogus-scheme", Placement: "striped:64", NumThreads: 1}, 10*time.Second)
	if err == nil {
		t.Fatal("Load succeeded despite an unloadable spec")
	}
	if !strings.Contains(err.Error(), "bogus-scheme") {
		t.Fatalf("load failure surfaced as %q, want the node's actual parse error", err)
	}
	co.Shutdown()
	err = joinWithin(t, join, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "node 0: ") || !strings.Contains(err.Error(), "bogus-scheme") {
		t.Fatalf("join after a failed load = %v, want node 0's parse error", err)
	}
}

// failingFlushTransport wraps a working transport with a wire that can be
// declared dead: Flush fails, exactly what a node sees when a peer
// connection drops with contexts in the batch buffer.
type failingFlushTransport struct {
	transport.Transport
	dead bool
}

func (f *failingFlushTransport) Flush() error {
	if f.dead {
		return fmt.Errorf("injected wire failure")
	}
	return f.Transport.Flush()
}

// TestDeadTransportParksPart pins the dead-transport fix: once a core's
// flush records the sticky failure, the whole part must park (no work it
// produces can ever leave the machine) instead of spinning until external
// teardown.
func TestDeadTransportParksPart(t *testing.T) {
	t.Parallel()
	tr := &failingFlushTransport{Transport: transport.NewLocal(4, 1), dead: true}
	pl, err := ParsePlacement("striped:64", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: geom.NewMesh(2, 2), Placement: pl}
	part, err := NewPart(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Start([]ThreadSpec{{Program: spinForever()}}, func(transport.HaltMsg) {}); err != nil {
		t.Fatal(err)
	}
	// Inject the spinning context; its core's first flush point hits the
	// dead wire and must abort the part.
	if err := tr.SendEviction(0, transport.Context{Thread: 0, Native: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-part.done:
	case <-time.After(10 * time.Second):
		t.Fatal("part kept executing for 10s on a dead transport (flush failure did not park it)")
	}
	part.Stop()
}

// TestServeNodeAbortsMidRun shuts the coordinator down while the node
// still holds a context that will never halt. ServeNode must stop its core
// loops and return instead of hanging on a busy context: the core loop
// only observed Stop while blocked, so a context that kept executing kept
// its core alive forever.
func TestServeNodeAbortsMidRun(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ServeNode(man, 0) }()

	cl, err := LoadCluster(man, ClusterConfig{}.LoadSpec(1), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The job's timeout gives the remote context real time to spin; the
	// run then ends with the context still resident.
	_, err = cl.RunJob(0, []ThreadSpec{{Program: spinForever()}}, nil, 500*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "run timed out with 0 of 1 threads halted") {
		t.Errorf("spinning job = %v, want the halt barrier's timeout", err)
	}
	cl.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeNode returned error on abort: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeNode did not return within 10s of coordinator shutdown (core loop wedged on a busy context)")
	}
}

// TestLoadTwiceFailsNamingNode: a node serves one run, so a second load is
// refused at once with an error naming the node. The node used to park the
// second LoadSpec unanswered, and the load barrier waited out its whole
// timeout, then failed naming no node ("0 of 1 nodes replied").
func TestLoadTwiceFailsNamingNode(t *testing.T) {
	t.Parallel()
	man, join, err := Loopback(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := ClusterConfig{}.LoadSpec(1)
	cl, err := LoadCluster(man, spec, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	co := cl.(*TCPCluster)
	err = co.Load(spec, 3*time.Second)
	if err == nil || !strings.Contains(err.Error(), "node 0 failed: already loaded") {
		t.Fatalf("second load = %v, want node 0's refusal", err)
	}
	co.Shutdown()
	co.Close()
	if err := joinWithin(t, join, 10*time.Second); err != nil {
		t.Errorf("join after a refused second load: %v", err)
	}
}

// TestJobLargerThanPoolRefusedAtSubmit: a job with more threads than the
// node's slot pool is refused at the submit barrier, naming the node and
// carrying the node's own range error.
func TestJobLargerThanPoolRefusedAtSubmit(t *testing.T) {
	t.Parallel()
	man, join, err := Loopback(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := LoadCluster(man, ClusterConfig{}.LoadSpec(1), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lit := StoreBufferingLitmus(64) // two threads
	_, err = cl.RunJob(0, lit.Threads, lit.Mem, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "node 0 failed") || !strings.Contains(err.Error(), "outside the 1-slot pool") {
		t.Fatalf("two-thread job on a one-slot pool = %v, want node 0's slot range error", err)
	}
	cl.Close()
	if err := joinWithin(t, join, 10*time.Second); err != nil {
		t.Errorf("join after a refused job: %v", err)
	}
}

// TestClustersRefuseJobOutsidePool: on a one-slot pool a two-thread job is
// refused with the same slot range error by both Cluster implementations,
// the in-process Machine and a one-node loopback cluster: both run the one
// install step.
func TestClustersRefuseJobOutsidePool(t *testing.T) {
	t.Parallel()
	lit := StoreBufferingLitmus(64) // two threads
	man, join, err := Loopback(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []transport.Manifest{{W: 2, H: 2}, man} {
		cl, err := LoadCluster(m, ClusterConfig{}.LoadSpec(1), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_, err = cl.RunJob(0, lit.Threads, lit.Mem, 10*time.Second)
		cl.Close()
		if err == nil || !strings.Contains(err.Error(), "machine: thread slot 1 outside the 1-slot pool") {
			t.Errorf("%d nodes: two-thread job on a one-slot pool = %v, want the slot range error", len(m.Nodes), err)
		}
	}
	if err := joinWithin(t, join, 10*time.Second); err != nil {
		t.Errorf("join after a refused job: %v", err)
	}
}
