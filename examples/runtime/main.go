// Runtime demonstrates the concurrent EM² runtime on both transports: the
// same machine.ClusterRun description (a program in the repository's
// mini-ISA) first executes on goroutine cores with contexts migrating over
// Go channels, then on a two-node TCP loopback cluster with contexts
// genuinely serialized over sockets — only the manifest changes — and both
// executions are verified sequentially consistent on their recorded events. (The nodes run in-process here for a self-contained example; see
// cmd/em2node and `em2sim -cluster` for separate OS processes.)
package main

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/transport"
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
	// The program with its outcome check: one description, verified the same
	// way wherever it ran.
	lit := machine.Litmus{
		Name:    "three-counters",
		Threads: threads,
		Check: func(read func(uint32) uint32, _ [][isa.NumRegs]uint32) error {
			for _, addr := range []uint32{0, 256, 512} {
				if got := read(addr); got != 8*100 {
					return fmt.Errorf("counter @%d = %d, want %d", addr, got, 8*100)
				}
			}
			return nil
		},
	}
	run := machine.ClusterRun{
		Config:  machine.ClusterConfig{GuestContexts: 2, Placement: "striped:64", LogEvents: true},
		Threads: lit.Threads,
	}
	report := func(title string, res *machine.ClusterResult) {
		fmt.Printf("\n%s: instructions=%d migrations=%d evictions=%d local-ops=%d\n",
			title, res.Instructions, res.Migrations, res.Evictions, res.LocalOps)
		for i, c := range res.NodeCounters {
			fmt.Printf("  node %d: instructions=%d migrations=%d\n", i, c["instructions"], c["migrations"])
		}
		for _, addr := range []uint32{0, 256, 512} {
			fmt.Printf("  counter @%-4d = %d (want %d)\n", addr, res.Mem[addr], 8*100)
		}
		if err := lit.Verify(res); err != nil {
			panic(err)
		}
		fmt.Printf("  sequential consistency: OK (%d events checked)\n", len(res.Events))
	}

	// --- In one process: the manifest names the 4x4 mesh and no nodes, so
	// one executor steps every core and a migration is a queue push.
	run.Manifest = transport.Manifest{W: 4, H: 4}
	res, err := run.Run()
	if err != nil {
		panic(err)
	}
	report("in-process", res)

	// --- Across the transport: the same description on two nodes on TCP
	// loopback, eight cores each; every cross-node migration ships the
	// context's wire encoding.
	var join func() error
	if run.Manifest, join, err = machine.Loopback(2, 4, 4); err != nil {
		panic(err)
	}
	cres, err := run.Run()
	if err = errors.Join(err, join()); err != nil {
		panic(err)
	}
	report("TCP cluster", cres)

	if res.Instructions != cres.Instructions {
		panic(fmt.Sprintf("transports disagree on retired instructions: %d vs %d",
			res.Instructions, cres.Instructions))
	}
	fmt.Println("\nboth transports retired the same instruction count — same machine, different wire")
}
