package machine

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/transport"
)

// joinWithin bounds a Loopback join, so a node that never exits fails the
// test instead of hanging it.
func joinWithin(t *testing.T, join func() error, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- join() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("loopback nodes did not exit within %v of shutdown", d)
		return nil
	}
}

// localManifest names the litmus platform's mesh and no nodes: the run stays
// in this process.
var localManifest = transport.Manifest{W: 2, H: 2}

// runVerified executes lit as one ClusterRun on man — in this process when
// man names no nodes, else on the cluster the caller started there — waits
// the nodes out through join (nil: none of ours to wait for) and verifies
// the execution.
func runVerified(t *testing.T, man transport.Manifest, join func() error, cfg ClusterConfig, lit Litmus) *ClusterResult {
	t.Helper()
	res, err := ClusterRun{Manifest: man, Config: cfg, Threads: lit.Threads, Mem: lit.Mem}.Run()
	if join != nil {
		err = errors.Join(err, joinWithin(t, join, 30*time.Second))
	}
	if err == nil {
		err = lit.Verify(res)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runOnBoth runs lit under cfg from the one description on both transports:
// in process, then on a 2-node TCP-loopback cluster whose node endpoints run
// in-process (Loopback) — real sockets, real frame batches, real
// ContextWireBytes serialization, without process-spawn overhead. The
// separate multi-process test lives in cluster_test.go.
func runOnBoth(t *testing.T, cfg ClusterConfig, lit Litmus) (local, tcp *ClusterResult) {
	t.Helper()
	local = runVerified(t, localManifest, nil, cfg, lit)
	man, join, err := Loopback(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return local, runVerified(t, man, join, cfg, lit)
}

// TestDifferentialInProcVsTCP runs the same programs on the in-process
// channel transport and on a TCP cluster, demanding SC-equivalent results
// (both executions pass the SC checker) and — for programs with
// schedule-independent outcomes — bit-identical final memory images and
// register files.
func TestDifferentialInProcVsTCP(t *testing.T) {
	t.Parallel()
	cases := []Litmus{
		MessagePassingLitmus(128), // flag homed on the far node
		AtomicCounterLitmus(4, sized(40, 10)),
	}
	for seed := 0; seed < sized(6, 2); seed++ {
		cases = append(cases, RandomLitmus(uint64(seed), RandOpts{PrivateWrites: true}))
	}
	for seed := 0; seed < sized(4, 2); seed++ {
		cases = append(cases, RandomLitmus(uint64(seed), RandOpts{}))
	}

	for _, lit := range cases {
		t.Run(lit.Name, func(t *testing.T) {
			inproc, tcp := runOnBoth(t, ClusterConfig{GuestContexts: 2, Quantum: 8, LogEvents: true}, lit)
			if lit.Deterministic {
				if !reflect.DeepEqual(inproc.Mem, tcp.Mem) {
					t.Fatalf("final memory images differ:\n in-proc %v\n tcp     %v",
						inproc.Mem, tcp.Mem)
				}
				if !reflect.DeepEqual(inproc.FinalRegs, tcp.FinalRegs) {
					t.Fatalf("final registers differ:\n in-proc %v\n tcp     %v",
						inproc.FinalRegs, tcp.FinalRegs)
				}
			} else if len(inproc.Mem) != len(tcp.Mem) {
				// Schedule-dependent programs must still agree on which
				// addresses exist (same footprint, both SC — checked above).
				t.Fatalf("memory footprints differ: %d vs %d words", len(inproc.Mem), len(tcp.Mem))
			}
			// Op totals are deliberately not compared even for
			// deterministic programs: a spin loop (MP's reader) retires a
			// schedule-dependent number of loads while still producing a
			// deterministic outcome, and evictions under the guest limit
			// depend on the schedule — which is why this is not
			// Litmus.Identical.
		})
	}
}

// TestClusterRunLocalMatchesMachineRun: the in-process arm of ClusterRun.Run
// is Machine.Run behind the names-based description — on every
// Deterministic litmus program the two agree bit for bit on registers,
// per-core rows, memory image and event count — and it rejects what a
// cluster would reject, with the same message.
func TestClusterRunLocalMatchesMachineRun(t *testing.T) {
	t.Parallel()
	cases := []Litmus{MessagePassingLitmus(64)}
	for seed := 0; seed < sized(6, 3); seed++ {
		cases = append(cases, RandomLitmus(uint64(seed), RandOpts{PrivateWrites: true}))
	}
	for _, lit := range cases {
		for _, scheme := range []string{"always-migrate", "history:2", "hybrid:16"} {
			t.Run(lit.Name+"/"+scheme, func(t *testing.T) {
				cfg := litmusConfig()
				cfg.GuestContexts = 0
				var err error
				if cfg.Scheme, err = ParseScheme(scheme, cfg.Mesh); err != nil {
					t.Fatal(err)
				}
				m, res := runLitmus(t, cfg, lit)
				object := &ClusterResult{Result: *res, Mem: m.MemImage()}
				names := runVerified(t, localManifest, nil,
					ClusterConfig{Quantum: cfg.Quantum, Scheme: scheme, LogEvents: true}, lit)
				// MP's reader spins, so only its outcome is comparable.
				if lit.Name == "mp" {
					object.PerCore, names.PerCore = nil, nil
				} else if len(object.Events) != len(names.Events) {
					t.Errorf("event counts differ: %d vs %d", len(object.Events), len(names.Events))
				}
				if err := lit.Identical(object, names); err != nil {
					t.Error(err)
				}
				if len(names.NodeCounters) != 1 || len(names.NodeNet) != 1 ||
					names.NodeNet[0] != (transport.NetStats{}) || names.CoordNet != (transport.NetStats{}) {
					t.Errorf("in-process run reported %d counter rows, wire %+v / %+v; want one node and no wire",
						len(names.NodeCounters), names.NodeNet, names.CoordNet)
				}
			})
		}
	}

	_, err := ClusterRun{Manifest: localManifest, Config: ClusterConfig{Placement: "first-touch"},
		Threads: cases[0].Threads}.Run()
	_, want := ParsePlacement("first-touch", 4)
	if err == nil || err.Error() != want.Error() {
		t.Errorf("first-touch on the in-process arm: %v, want %v", err, want)
	}
	if _, err := (ClusterRun{Config: ClusterConfig{}, Threads: cases[0].Threads}).Run(); err == nil {
		t.Error("a manifest with no mesh accepted")
	}
}

// TestLoopbackJoinAfterPreDialFailure: every way a run can fail before the
// coordinator dials leaves the nodes parked waiting for a load that never
// comes; join must release them, so callers can join unconditionally.
func TestLoopbackJoinAfterPreDialFailure(t *testing.T) {
	t.Parallel()
	lit := MessagePassingLitmus(64)
	wide := []ThreadSpec{{Program: []isa.Instr{
		{Op: isa.FAA, Rd: 4, Rs: 0, Rt: 3, Imm: 5000}, // does not survive the wire
		{Op: isa.HALT},
	}}}
	for _, tc := range []struct {
		name    string
		cfg     ClusterConfig
		threads []ThreadSpec
		want    string
	}{
		{"bad scheme", ClusterConfig{Scheme: "bogus"}, lit.Threads, `unknown scheme "bogus"`},
		{"first-touch", ClusterConfig{Placement: "first-touch"}, lit.Threads, "first-touch placement is per-process"},
		{"wire-unsafe instruction", ClusterConfig{}, wide, "does not survive the wire"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			man, join, err := Loopback(2, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ClusterRun{Manifest: man, Config: tc.cfg, Threads: tc.threads}.Run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run error %v, want it to mention %q", err, tc.want)
			}
			if err := joinWithin(t, join, 5*time.Second); err != nil {
				t.Errorf("join after a pre-dial failure: %v", err)
			}
		})
	}
}

// TestLoopbackHoldsItsPorts: Loopback's nodes adopt the listeners that
// reserved their ports, so from the moment the manifest exists no other
// process (here: this test) can bind one of its addresses — the port steal
// that used to kill a node with "address already in use" under go test ./...
func TestLoopbackHoldsItsPorts(t *testing.T) {
	t.Parallel()
	man, join, err := Loopback(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range man.Nodes {
		ln, err := net.Listen("tcp", n.Addr)
		if err == nil {
			ln.Close()
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			t.Errorf("node %d: listen on %s: %v, want address already in use", i, n.Addr, err)
		}
	}
	if err := joinWithin(t, join, 10*time.Second); err != nil {
		t.Errorf("join: %v", err)
	}
}

// TestServeNodeShutdownWithoutRun: a coordinator that aborts before
// loading (or before collecting) must still release the node processes —
// ServeNode returns instead of parking forever on Loads or ShutdownC.
func TestServeNodeShutdownWithoutRun(t *testing.T) {
	t.Parallel()
	man, join, err := Loopback(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	co.Shutdown()
	co.Close()
	if err := joinWithin(t, join, 10*time.Second); err != nil {
		t.Errorf("%v on abort", err)
	}
}

// TestClusterSchemeAndPlacementParsing pins the wire-name parsers: what
// they accept (including the stateful history:N) and that rejections
// enumerate the valid wire names so the errors are actionable.
func TestClusterSchemeAndPlacementParsing(t *testing.T) {
	t.Parallel()
	cfg := litmusConfig()
	if _, err := ParsePlacement("striped:32", 4); err != nil {
		t.Error(err)
	}
	if _, err := ParsePlacement("page-striped", 4); err != nil {
		t.Error(err)
	}
	if _, err := ParsePlacement("first-touch", 4); err == nil {
		t.Error("first-touch accepted for a cluster")
	}
	if _, err := ParsePlacement("striped:x", 4); err == nil {
		t.Error("bad striped arg accepted")
	}
	if _, err := ParseScheme("distance:2", cfg.Mesh); err != nil {
		t.Error(err)
	}
	if s, err := ParseScheme("history:2", cfg.Mesh); err != nil {
		t.Error(err)
	} else if s.Name() != "history>=2" {
		t.Errorf("history:2 parsed to %q", s.Name())
	}
	if _, err := ParseScheme("history:0", cfg.Mesh); err == nil {
		t.Error("non-positive history threshold accepted")
	}
	if _, err := ParseScheme("history:x", cfg.Mesh); err == nil {
		t.Error("bad history arg accepted")
	}
	if _, err := ParseScheme("oracle", cfg.Mesh); err == nil {
		t.Error("oracle scheme accepted for a cluster")
	}
	// Rejections must name every valid wire name.
	_, err := ParseScheme("nope", cfg.Mesh)
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	for _, want := range SchemeNames() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("scheme error %q does not mention %q", err, want)
		}
	}
	_, err = ParsePlacement("nope", 4)
	if err == nil {
		t.Fatal("unknown placement accepted")
	}
	for _, want := range PlacementNames() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("placement error %q does not mention %q", err, want)
		}
	}
}

// TestDifferentialHistoryScheme is the stateful-scheme acceptance test: the
// same deterministic programs run under history:2 on the channel transport
// and on a TCP cluster, with the predictor state crossing the wire inside
// each migrating context. Both runs must be SC-clean and produce
// bit-identical final memory, final registers, AND identical per-core
// runtime metrics — migrations, remote round trips, local hits,
// instructions, and context flits all land on the same cores.
// GuestContexts is 0 so no schedule-dependent evictions perturb the counts.
func TestDifferentialHistoryScheme(t *testing.T) {
	t.Parallel()
	for seed := 0; seed < sized(4, 2); seed++ {
		lit := RandomLitmus(uint64(seed), RandOpts{PrivateWrites: true})
		t.Run(lit.Name, func(t *testing.T) {
			t.Parallel()
			inproc, tcp := runOnBoth(t, ClusterConfig{Quantum: 8, Scheme: "history:2", LogEvents: true}, lit)
			if err := lit.Identical(inproc, tcp); err != nil {
				t.Fatal(err)
			}
			if inproc.Migrations == 0 {
				t.Error("history scheme produced no migrations on a cross-home workload")
			}
		})
	}
}

// TestClusterRemoteAccessScheme runs a TCP cluster under always-remote:
// contexts stay put and every non-local access is a wire round trip.
func TestClusterRemoteAccessScheme(t *testing.T) {
	t.Parallel()
	lit := AtomicCounterLitmus(4, sized(20, 8))
	man, join, err := Loopback(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := runVerified(t, man, join, ClusterConfig{Scheme: "always-remote", LogEvents: true}, lit)
	if res.Migrations != 0 {
		t.Errorf("always-remote migrated %d times", res.Migrations)
	}
	if res.RemoteReads+res.RemoteWrites == 0 {
		t.Error("always-remote performed no remote accesses")
	}
}

// TestClusterRunValidation: coordinator-side fail-fast paths.
func TestClusterRunValidation(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	lit := MessagePassingLitmus(64)
	run := func(cfg ClusterConfig, threads []ThreadSpec) error {
		_, err := ClusterRun{Manifest: man, Config: cfg, Threads: threads}.Run()
		return err
	}
	if err := run(ClusterConfig{}, nil); err == nil {
		t.Error("no threads accepted")
	}
	if err := run(ClusterConfig{Placement: "first-touch"}, lit.Threads); err == nil {
		t.Error("first-touch accepted")
	}
	if err := run(ClusterConfig{Scheme: "nope"}, lit.Threads); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run(ClusterConfig{GuestContexts: -1}, lit.Threads); err == nil {
		t.Error("negative guest contexts accepted (nodes would all reject the load)")
	}
	// An atomic with an immediate too wide for its 11-bit field would
	// silently execute a different address on the far side; the encoder
	// check must reject it before anything ships.
	wide := []ThreadSpec{{Program: []isa.Instr{
		{Op: isa.FAA, Rd: 4, Rs: 0, Rt: 3, Imm: 5000},
		{Op: isa.HALT},
	}}}
	if err := run(ClusterConfig{}, wide); err == nil {
		t.Error("wire-unsafe immediate accepted")
	}
	bad := ThreadSpec{Program: lit.Threads[0].Program, Regs: map[int]uint32{0: 1}}
	if err := run(ClusterConfig{}, []ThreadSpec{bad}); err == nil {
		t.Error("write to r0 accepted")
	}
}

// TestFlushAgeReleasesSpinners is the liveness test of the TCP node's
// write rule: the executor flushes when it is about to park, and two
// threads spinning on node 0 keep it from ever parking while the context
// that will release them — thread 0, bound for node 1 — waits in node 0's
// batch buffer. Only the age arm (runExecutor flushes at least once every
// len(owned) rounds, however busy) gets it out; without it the run ends
// in its timeout.
func TestFlushAgeReleasesSpinners(t *testing.T) {
	t.Parallel()
	spin := isa.MustAssemble(`
	spin:
		lw   r1, 0(r0)    ; flag, homed at core 0 (node 0)
		beq  r1, r0, spin
		halt
	`)
	// The countdown keeps thread 0 home until both spinners are resident.
	release := isa.MustAssemble(`
		addi r3, r0, 300
	wait:
		addi r3, r3, -1
		bne  r3, r0, wait
		lw   r1, 128(r0)  ; homed at core 2: migrate to node 1
		addi r2, r0, 1
		sw   r2, 0(r0)    ; back to core 0: release the spinners
		halt
	`)
	halt := isa.MustAssemble(`halt`)
	lit := Litmus{
		Name: "flush-age",
		// Threads 0 and 4 are native to core 0, 1 to core 1 (node 0); 2
		// and 3 to node 1's cores.
		Threads:       []ThreadSpec{{Program: release}, {Program: spin}, {Program: halt}, {Program: halt}, {Program: spin}},
		Deterministic: true,
		Check: func(read func(uint32) uint32, regs [][isa.NumRegs]uint32) error {
			if read(0) != 1 {
				return fmt.Errorf("flag %d, want 1", read(0))
			}
			return nil
		},
	}
	man, join, err := Loopback(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{Quantum: 8, LogEvents: true, Timeout: 10 * time.Second}
	res, err := ClusterRun{Manifest: man, Config: cfg, Threads: lit.Threads}.Run()
	err = errors.Join(err, joinWithin(t, join, 30*time.Second))
	if err != nil {
		t.Fatalf("spinners never released: %v", err)
	}
	if err := lit.Verify(res); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRunThreadFromTwoPeers sends one thread around a 3-node ring
// so that it reaches node 1 alternately from node 0 and from node 2: its
// context, history-predictor state included, decodes into node 1's one
// slot for the thread from two different connection readers (run it under
// -race). The result must match the in-process run exactly.
func TestClusterRunThreadFromTwoPeers(t *testing.T) {
	t.Parallel()
	// page-striped:4096 on 3 cores: page p is homed at core p mod 3, one
	// core per node. Runs of two accesses teach history:2 to migrate.
	ring := isa.MustAssemble(fmt.Sprintf(`
		addi r2, r0, %d
	loop:
		lw   r1, 4096(r0)  ; page 1: node 1, from node 0
		lw   r1, 4100(r0)
		lw   r1, 8192(r0)  ; page 2: node 2
		lw   r1, 8196(r0)
		lw   r1, 4104(r0)  ; page 1 again: node 1, from node 2
		lw   r1, 4108(r0)
		lw   r1, 0(r0)     ; page 0: node 0
		lw   r1, 4(r0)
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`, sized(40, 10)))
	lit := Litmus{Name: "ring", Threads: []ThreadSpec{{Program: ring}}, Deterministic: true}
	cfg := ClusterConfig{Quantum: 8, Scheme: "history:2", Placement: "page-striped:4096", LogEvents: true}
	local := runVerified(t, transport.Manifest{W: 3, H: 1}, nil, cfg, lit)
	man, join, err := Loopback(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tcp := runVerified(t, man, join, cfg, lit)
	if err := lit.Identical(local, tcp); err != nil {
		t.Fatal(err)
	}
	// Every migration core 0 or core 2 ships lands at core 1.
	if m0, m2 := tcp.PerCore[0].Migrations, tcp.PerCore[2].Migrations; m0 == 0 || m2 == 0 {
		t.Fatalf("node 1 reached from node 0 %d times and from node 2 %d times, want both", m0, m2)
	}
}
