// Runtime demonstrates the concurrent EM² runtime on both transports: the
// same program (in the repository's mini-ISA) first executes on goroutine
// cores with contexts migrating over Go channels, then on a two-node TCP
// loopback cluster with contexts genuinely serialized over sockets — and
// both executions are verified sequentially consistent on their recorded
// events. (The nodes run in-process here for a self-contained example; see
// cmd/em2node and `em2sim -cluster` for separate OS processes.)
package main

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/placement"
)

func main() {
	// Eight threads atomically increment three counters homed at three
	// different cores; under EM² each FAA executes at the counter's home.
	prog := isa.MustAssemble(`
		addi r2, r0, 100   ; iterations
		addi r3, r0, 1     ; increment
	loop:
		faa  r4, 0(r0), r3    ; counter A, homed at core 0
		faa  r4, 256(r0), r3  ; counter B, homed at core 4
		faa  r4, 512(r0), r3  ; counter C, homed at core 8
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`)
	fmt.Println("program:")
	fmt.Print(isa.Disassemble(prog))

	threads := make([]machine.ThreadSpec, 8)
	for i := range threads {
		threads[i] = machine.ThreadSpec{Program: prog}
	}

	// --- In one process: cores are goroutines, channels are the networks.
	cfg := machine.Config{
		Mesh:          geom.SquareMesh(16),
		GuestContexts: 2,
		Placement:     placement.NewStriped(64, 16),
		LogEvents:     true,
	}
	m, err := machine.New(cfg, len(threads))
	if err != nil {
		panic(err)
	}
	res, err := m.Run(threads)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nin-process: instructions=%d migrations=%d evictions=%d local-ops=%d\n",
		res.Instructions, res.Migrations, res.Evictions, res.LocalOps)
	for _, addr := range []uint32{0, 256, 512} {
		fmt.Printf("  counter @%-4d = %d (want %d)\n", addr, m.Read(addr), 8*100)
	}
	if err := machine.CheckSC(res.Events); err != nil {
		panic(err)
	}
	fmt.Printf("  sequential consistency: OK (%d events checked)\n", len(res.Events))

	// --- Across the transport: two nodes on TCP loopback, eight cores
	// each; every cross-node migration ships the context's wire encoding.
	man, join, err := machine.Loopback(2, 4, 4)
	if err != nil {
		panic(err)
	}
	cres, err := machine.ClusterRun{
		Manifest: man,
		Config: machine.ClusterConfig{
			GuestContexts: 2,
			Placement:     "striped:64",
			LogEvents:     true,
		},
		Threads: threads,
	}.Run()
	if err = errors.Join(err, join()); err != nil {
		panic(err)
	}
	fmt.Printf("\nTCP cluster: instructions=%d migrations=%d evictions=%d local-ops=%d\n",
		cres.Instructions, cres.Migrations, cres.Evictions, cres.LocalOps)
	for i, c := range cres.NodeCounters {
		fmt.Printf("  node %d: instructions=%d migrations=%d\n", i, c["instructions"], c["migrations"])
	}
	for _, addr := range []uint32{0, 256, 512} {
		fmt.Printf("  counter @%-4d = %d (want %d)\n", addr, cres.Mem[addr], 8*100)
	}
	if err := machine.CheckSC(cres.Events); err != nil {
		panic(err)
	}
	fmt.Printf("  sequential consistency: OK (%d events checked)\n", len(cres.Events))

	if res.Instructions != cres.Instructions {
		panic(fmt.Sprintf("transports disagree on retired instructions: %d vs %d",
			res.Instructions, cres.Instructions))
	}
	fmt.Println("\nboth transports retired the same instruction count — same machine, different wire")
}
