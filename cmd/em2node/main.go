// Command em2node serves one node of a distributed EM² cluster: it runs
// the executor and memory shards of the cores its manifest entry owns,
// with migrating contexts and remote accesses crossing TCP to the other
// nodes, then exits when the coordinator shuts the run down.
//
// Usage:
//
//	em2node -manifest cluster.json -node 0
//
// The manifest is shared by every node and by the driver (see
// `em2sim -cluster`, or machine.ClusterRun for embedding):
//
//	{
//	  "w": 2, "h": 2,
//	  "nodes": [
//	    {"addr": "127.0.0.1:9000", "cores": [0, 1]},
//	    {"addr": "127.0.0.1:9001", "cores": [2, 3]}
//	  ]
//	}
//
// Start one em2node per manifest entry (any order — peers retry their
// dials), then run the driver against the same manifest. A node serves
// exactly one run, and refuses a second load.
//
// A node acknowledges its LoadSpec — configuration only: it starts its
// cores over an empty pool of thread slots (success after the data plane
// is wired, or its actual error — a bad scheme name fails the coordinator
// with that message, not a bare connection drop). Programs and initial
// memory arrive as jobs: a batch run is job 0, a serve session one job
// per arrival, each installed before its contexts are injected. The node
// sends async heartbeats while it runs and streams its collect reply back
// as per-core chunks — the O(nodes) control plane that lets one
// coordinator drive 8+ node processes (DESIGN.md §6). A cluster of
// em2nodes scales to the paper's 64-core machine and beyond: CI runs 8
// of them on an 8x8 mesh bit-identical to the single-process run, and
// README documents the 256-core soak.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/machine"
	"repro/internal/transport"
)

func main() {
	manifest := flag.String("manifest", "", "cluster manifest (JSON)")
	node := flag.Int("node", -1, "index of this node in the manifest")
	wireStats := flag.Bool("wire-stats", false, "print wire-level traffic counters (batches, msgs, coalescing) to stderr on exit")
	flag.Parse()

	if *manifest == "" || *node < 0 {
		fmt.Fprintln(os.Stderr, "em2node: -manifest and -node are required")
		os.Exit(2)
	}
	man, err := transport.LoadManifest(*manifest)
	if err != nil {
		fail(err)
	}
	var opts []machine.NodeOption
	if *wireStats {
		opts = append(opts, machine.WithWireStats(os.Stderr))
	}
	if err := machine.ServeNode(man, *node, opts...); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "em2node:", err)
	os.Exit(1)
}
