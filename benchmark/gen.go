package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The hop kernel's fixed shape: 16 threads on a 4x4 mesh under
// page-striped:4096, thread t native to core t. The seed chooses word
// offsets and ALU immediates only, so instruction, migration and remote-op
// counts are the same at every seed.
const (
	hopThreads  = 16
	hopIters    = 500
	hopPage     = 4096
	hopRunWords = 8 // length of the remote read run over a peer's mailbox
)

// hopKernel generates the hop program (one text, shared by every thread)
// and each thread's initial registers.
//
// Thread t owns three pages homed at core t: private (page t), mailbox
// (page 16+t) and flag (page 32+t). Each iteration publishes one mailbox
// word and the flag, does 4 ALU instructions and 4 private accesses, reads
// a run of 8 words from the mailbox of core (t+8) mod 16 — long enough for
// history:2 to ship the context there — comes home with a private store,
// and reads the flag of core (t+1) mod 16, a run of one that stays a remote
// read. Every word has one writer and loaded values only ever land in r7,
// which is cleared before HALT, so control flow, final registers, the
// memory image and every counter are independent of the schedule.
func hopKernel(seed int64) (src string, regs func(t int) map[int]uint32) {
	rng := rand.New(rand.NewSource(seed))
	words := rng.Perm(hopPage / 4)
	priv := [4]int{words[0] * 4, words[1] * 4, words[2] * 4, words[3] * 4}
	flag := rng.Intn(hopPage/4) * 4
	// The mailbox block is indexed by a register holding 0..28, so its
	// base leaves room for the 8-word run inside the page.
	mbox := rng.Intn(hopPage/4-hopRunWords) * 4
	imm1, imm2 := 1+rng.Intn(1<<14-1), 1+rng.Intn(1<<14-1)

	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	p("loop:")
	p("  and  r9, r6, r10") // r10 = 7: mailbox word i mod 8
	p("  sll  r9, r9, r11") // r11 = 2: word -> byte offset
	p("  add  r9, r9, r2")
	p("  sw   r8, %d(r9)", mbox) // publish the mailbox word
	p("  sw   r8, %d(r3)", flag) // publish the flag
	p("  addi r8, r8, %d", imm1)
	p("  xor  r12, r8, r6")
	p("  addi r12, r12, %d", imm2)
	p("  add  r8, r8, r12")
	p("  sw   r8, %d(r1)", priv[0])
	p("  sw   r12, %d(r1)", priv[1])
	p("  lw   r7, %d(r1)", priv[0])
	p("  lw   r7, %d(r1)", priv[1])
	for w := 0; w < hopRunWords; w++ {
		p("  lw   r7, %d(r4)", mbox+4*w) // the run at the peer's mailbox
	}
	p("  sw   r8, %d(r1)", priv[2]) // come home
	p("  lw   r7, %d(r5)", flag)    // a run of one at the next core's flag
	p("  sw   r12, %d(r1)", priv[3])
	p("  addi r6, r6, -1")
	p("  bne  r6, r0, loop")
	p("  add  r7, r0, r0")
	p("  halt")

	regs = func(t int) map[int]uint32 {
		page := func(n int) uint32 { return uint32(n) * hopPage }
		return map[int]uint32{
			1:  page(t),
			2:  page(hopThreads + t),
			3:  page(2*hopThreads + t),
			4:  page(hopThreads + (t+hopThreads/2)%hopThreads),
			5:  page(2*hopThreads + (t+1)%hopThreads),
			6:  hopIters,
			8:  uint32(t + 1),
			10: hopRunWords - 1,
			11: 2,
		}
	}
	return b.String(), regs
}

// A 1x1 machine's instruction-cost probes: an ALU-only loop and a loop of
// local loads and stores, each probeIters iterations of 16 instructions.
const (
	probeIters = 1 << 16 // what "lui r1, 1" leaves in the loop counter
	probeBody  = 14      // instructions per iteration besides the decrement and branch
)

func aluLoop() string {
	var b strings.Builder
	b.WriteString("addi r3, r0, 5\nlui r1, 1\nloop:\n")
	for i := 0; i < probeBody/2; i++ {
		b.WriteString("  add r2, r2, r3\n  xor r4, r2, r1\n")
	}
	b.WriteString("  addi r1, r1, -1\n  bne r1, r0, loop\n  halt\n")
	return b.String()
}

func memLoop() string {
	var b strings.Builder
	b.WriteString("lui r1, 1\nloop:\n")
	for i := 0; i < probeBody/2; i++ {
		fmt.Fprintf(&b, "  sw r1, %d(r0)\n  lw r4, %d(r0)\n", 64*i, 64*i)
	}
	b.WriteString("  addi r1, r1, -1\n  bne r1, r0, loop\n  halt\n")
	return b.String()
}
