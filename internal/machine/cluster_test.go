package machine

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/transport"
)

// TestMain doubles as the node-process entry point: when the serve-node
// environment variables are set, this test binary IS an em2node (it runs
// the identical ServeNode code path cmd/em2node wraps) — the standard
// re-exec pattern for multi-process tests, with no manual steps.
func TestMain(m *testing.M) {
	if path := os.Getenv("EM2_SERVE_MANIFEST"); path != "" {
		idx, err := strconv.Atoi(os.Getenv("EM2_SERVE_NODE"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad EM2_SERVE_NODE:", err)
			os.Exit(1)
		}
		man, err := transport.LoadManifest(path)
		if err == nil {
			err = ServeNode(man, idx)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve node %d: %v\n", idx, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnCluster writes the manifest and starts one OS process per node,
// using the given argv maker. Processes are reaped on test cleanup.
func spawnCluster(t *testing.T, man transport.Manifest, start func(manifestPath string, node int) *exec.Cmd) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := man.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	for i := range man.Nodes {
		cmd := start(path, i)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}
}

// reexecNode runs this test binary as a cluster node (see TestMain).
func reexecNode(manifestPath string, node int) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"EM2_SERVE_MANIFEST="+manifestPath,
		"EM2_SERVE_NODE="+strconv.Itoa(node))
	return cmd
}

// runOnProcesses executes lit on a real multi-process TCP-loopback
// cluster and validates SC plus the litmus post-condition.
func runOnProcesses(t *testing.T, nodes int, lit Litmus, start func(string, int) *exec.Cmd) *ClusterResult {
	t.Helper()
	man, err := transport.LocalManifest(nodes, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	spawnCluster(t, man, start)
	return runVerified(t, man, nil, ClusterConfig{LogEvents: true}, lit) // the processes are reaped by Cleanup
}

// TestTwoProcessClusterLitmus is the acceptance test: a 2-process cluster
// over TCP loopback passes the message-passing and store-buffering litmus
// tests and a full SC-checker pass, with contexts provably crossing
// process boundaries (both nodes retire instructions; migrations occur).
func TestTwoProcessClusterLitmus(t *testing.T) {
	t.Parallel()
	for _, lit := range []Litmus{
		// Stride 128 homes the flag/second word at core 2 — the far node —
		// so the litmus cannot pass without cross-process traffic.
		MessagePassingLitmus(128),
		StoreBufferingLitmus(128),
	} {
		t.Run(lit.Name, func(t *testing.T) {
			for i := 0; i < sized(4, 2); i++ {
				res := runOnProcesses(t, 2, lit, reexecNode)
				if res.Migrations == 0 {
					t.Fatalf("iteration %d: no migrations in a cross-node litmus", i)
				}
				busy := 0
				for _, c := range res.NodeCounters {
					if c["instructions"] > 0 {
						busy++
					}
				}
				if busy < 2 {
					t.Fatalf("iteration %d: only %d of 2 node processes executed instructions", i, busy)
				}
			}
		})
	}
}

// TestThreeProcessClusterCounter runs the atomic-counter litmus across
// three node processes on a 2x2 mesh: RMW atomicity must survive the wire.
func TestThreeProcessClusterCounter(t *testing.T) {
	t.Parallel()
	lit := AtomicCounterLitmus(4, sized(30, 10))
	res := runOnProcesses(t, 3, lit, reexecNode)
	if res.Migrations == 0 {
		t.Fatal("no migrations with threads native to three processes")
	}
}

// TestEm2nodeBinaryCluster builds the real cmd/em2node binary and drives a
// 2-process cluster through it — the shipped artifact, not just its code
// path. Skipped in -short (it invokes the go toolchain).
func TestEm2nodeBinaryCluster(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("building cmd/em2node needs the go toolchain; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "em2node")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/em2node")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/em2node: %v\n%s", err, out)
	}
	lit := MessagePassingLitmus(128)
	res := runOnProcesses(t, 2, lit, func(manifestPath string, node int) *exec.Cmd {
		return exec.Command(bin, "-manifest", manifestPath, "-node", strconv.Itoa(node))
	})
	if res.Migrations == 0 {
		t.Fatal("no migrations through em2node binaries")
	}
}

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
