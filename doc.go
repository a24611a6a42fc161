// Package repro is a Go reproduction of "Brief Announcement: Distributed
// Shared Memory based on Computation Migration" (Lis et al., SPAA 2011): the
// Execution Migration Machine (EM²), its EM²-RA remote-cache-access hybrid,
// the stack-machine EM² variant, and the paper's analytical model with its
// dynamic-programming decision oracles.
//
// See README.md for a tour and DESIGN.md for the system inventory and
// per-experiment index. `go run ./cmd/figures all` regenerates every figure
// and table through the internal/sweep parallel experiment harness;
// `go run ./benchmark` is the performance yardstick (BENCHMARK.json).
package repro
