package machine

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/transport"
)

// TestJobRefusals runs every bad job through every entry that takes one,
// and each entry refuses it with the one message of checkJob — or, for a
// rule only a job that may cross a wire obeys, of checkWireJob on the
// Cluster entries. A refusal changes no state: each loaded Cluster runs
// a good job after refusing every bad one.
func TestJobRefusals(t *testing.T) {
	t.Parallel()
	halt := []isa.Instr{{Op: isa.HALT}}
	wide := isa.Instr{Op: isa.FAA, Rd: 4, Rs: 0, Rt: 3, Imm: 5000} // the immediate field is 11 bits
	jobs := []struct {
		name    string
		threads []ThreadSpec
		wire    bool // a wire rule: refused by the Cluster entries only
		want    string
	}{
		{"no threads", nil, false, "machine: job has no threads"},
		{"empty program", []ThreadSpec{{Program: halt}, {}}, false, "machine: thread 1 has an empty program"},
		{"r0 initial register", []ThreadSpec{{Program: halt, Regs: map[int]uint32{40: 1, 0: 1, 3: 1}}}, false,
			"machine: thread 0: bad initial register r0"},
		{"too-wide FAA immediate", []ThreadSpec{{Program: []isa.Instr{wide, {Op: isa.HALT}}}}, true,
			fmt.Sprintf("machine: thread 0 instruction 0 (%v) does not survive the wire encoding", wide)},
	}
	cfg := Config{Mesh: geom.NewMesh(2, 2), Placement: placement.NewStriped(64, 4)}
	mesh := transport.Manifest{W: 2, H: 2}
	runMan, runJoin, err := Loopback(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	clMan, clJoin, err := Loopback(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := LoadCluster(mesh, ClusterConfig{}.LoadSpec(2), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	remote, err := LoadCluster(clMan, ClusterConfig{}.LoadSpec(2), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	entries := []struct {
		name    string
		cluster bool
		run     func([]ThreadSpec) error
	}{
		{"Machine.Run", false, func(threads []ThreadSpec) error {
			m, err := New(cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			_, err = m.Run(threads)
			return err
		}},
		{"Part.Start", false, func(threads []ThreadSpec) error {
			part, err := NewPart(cfg, transport.NewLocal(4, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer part.Stop()
			return part.Start(threads, func(transport.HaltMsg) {})
		}},
		{"Part.ApplyJob", false, func(threads []ThreadSpec) error {
			part, err := NewPart(cfg, transport.NewLocal(4, 2))
			if err != nil {
				t.Fatal(err)
			}
			if err := part.StartServe(2, func(transport.HaltMsg) {}); err != nil {
				t.Fatal(err)
			}
			defer part.Stop()
			// The frame a coordinator that skipped the check would send.
			js := &transport.JobSpec{Programs: make([][]uint32, len(threads)), Regs: make([]map[int]uint32, len(threads))}
			for t, th := range threads {
				for _, in := range th.Program {
					js.Programs[t] = append(js.Programs[t], in.Encode())
				}
				js.Regs[t] = th.Regs
			}
			return part.ApplyJob(js)
		}},
		{"ClusterRun in process", true, func(threads []ThreadSpec) error {
			_, err := ClusterRun{Manifest: mesh, Threads: threads}.Run()
			return err
		}},
		{"ClusterRun on a loopback node", true, func(threads []ThreadSpec) error {
			_, err := ClusterRun{Manifest: runMan, Threads: threads}.Run()
			return err
		}},
		{"Machine.RunJob", true, func(threads []ThreadSpec) error {
			_, err := local.RunJob(0, threads, nil, 10*time.Second)
			return err
		}},
		{"TCPCluster.RunJob", true, func(threads []ThreadSpec) error {
			_, err := remote.RunJob(0, threads, nil, 10*time.Second)
			return err
		}},
	}
	for _, e := range entries {
		for _, j := range jobs {
			if j.wire && !e.cluster {
				continue
			}
			if err := e.run(j.threads); err == nil || err.Error() != j.want {
				t.Errorf("%s, %s: %v, want %q", e.name, j.name, err, j.want)
			}
		}
	}

	lit := StoreBufferingLitmus(64)
	for _, cl := range []Cluster{local, remote} {
		if halts, err := cl.RunJob(1, lit.Threads, lit.Mem, 10*time.Second); err != nil || len(halts) != 2 {
			t.Errorf("%T: a good job after the refusals: %d halts, %v", cl, len(halts), err)
		}
	}
	remote.Close()
	for _, join := range []func() error{runJoin, clJoin} {
		if err := joinWithin(t, join, 10*time.Second); err != nil {
			t.Errorf("join: %v", err)
		}
	}
}

// TestJobChecksZeroAlloc: every job a serve session admits passes both
// refusal checks, so passing allocates nothing. The jobs are the three
// kinds of serve's mix workload, each thread's r29 carrying a region base
// as serve's rebasing sets it.
func TestJobChecksZeroAlloc(t *testing.T) {
	for _, lit := range []Litmus{StoreBufferingLitmus(64), AtomicCounterLitmus(3, 4), RandomLitmus(7, RandOpts{PrivateWrites: true})} {
		threads := slices.Clone(lit.Threads)
		for i := range threads {
			regs := maps.Clone(threads[i].Regs)
			if regs == nil {
				regs = map[int]uint32{}
			}
			regs[29] = 4096
			threads[i].Regs = regs
		}
		for _, c := range []struct {
			name  string
			check func([]ThreadSpec) error
		}{{"checkJob", checkJob}, {"checkWireJob", checkWireJob}} {
			var err error
			if n := testing.AllocsPerRun(100, func() { err = c.check(threads) }); n != 0 || err != nil {
				t.Errorf("%s on %s: %.0f allocs, %v; want 0 and nil", c.name, lit.Name, n, err)
			}
		}
	}
}
