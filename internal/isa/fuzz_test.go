package isa

import (
	"bytes"
	"reflect"
	"testing"
)

// EncodeWire returns the ContextWireBytes-byte encoding of c.
func (c Context) EncodeWire() []byte {
	return c.AppendWire(make([]byte, 0, ContextWireBytes))
}

// exampleSources seed the fuzz corpora with the program shapes the
// repository actually runs (examples/runtime, the litmus tests).
var exampleSources = []string{
	`
		addi r2, r0, 100   ; iterations
		addi r3, r0, 1     ; increment
	loop:
		faa  r4, 0(r0), r3
		faa  r4, 256(r0), r3
		faa  r4, 512(r0), r3
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`,
	`
	spin:
		lw   r1, 64(r0)
		beq  r1, r0, spin
		lw   r2, 0(r0)
		halt
	`,
	`
		addi r1, r0, 9
		sw   r1, 64(r0)
		swap r4, 64(r0), r3
		lui  r5, 16
		jal  6
		jr   r31
		halt
	`,
}

// immFits reports whether in.Imm survives the width of its encoding field
// (the assembler does not range-check immediates; Encode truncates).
func immFits(in Instr) bool {
	switch in.Op {
	case JMP, JAL:
		return in.Imm >= -(1<<25) && in.Imm < 1<<25
	case FAA, SWAP:
		return in.Imm >= -(1<<10) && in.Imm < 1<<10
	case NOP, HALT, ADD, SUB, MUL, AND, OR, XOR, SLT, SLL, SRL, JR:
		return in.Imm == 0 // no immediate field
	default:
		return in.Imm >= -(1<<15) && in.Imm < 1<<15
	}
}

// FuzzInstrRoundTrip: decoding any 32-bit word either fails or yields an
// instruction whose encoding decodes back to the same instruction — the
// binary form is canonical after one decode.
func FuzzInstrRoundTrip(f *testing.F) {
	for _, src := range exampleSources {
		for _, in := range MustAssemble(src) {
			f.Add(in.Encode())
		}
	}
	f.Add(uint32(0))
	f.Add(^uint32(0))
	f.Fuzz(func(t *testing.T, w uint32) {
		in, err := Decode(w)
		if err != nil {
			return
		}
		again, err := Decode(in.Encode())
		if err != nil {
			t.Fatalf("re-decode of %v failed: %v", in, err)
		}
		if again != in {
			t.Fatalf("canonical round trip broke: %v -> %v", in, again)
		}
		if !immFits(again) {
			t.Fatalf("decoded instruction %v has out-of-field immediate", again)
		}
	})
}

// FuzzAssemble: the assembler never panics; successful assembly is
// deterministic, and every assembled instruction with in-range immediates
// survives the binary encoding.
func FuzzAssemble(f *testing.F) {
	for _, src := range exampleSources {
		f.Add(src)
	}
	f.Add("label: jmp label")
	f.Add("lw r1, -8(r2)\nhalt")
	f.Add(":")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		again, err := Assemble(src)
		if err != nil || !reflect.DeepEqual(prog, again) {
			t.Fatalf("assembly not deterministic (%v)", err)
		}
		for i, in := range prog {
			if !in.Op.Valid() {
				t.Fatalf("instruction %d has invalid opcode %d", i, uint8(in.Op))
			}
			if !immFits(in) {
				continue // assembler accepts wide immediates; the wire does not
			}
			back, err := Decode(in.Encode())
			if err != nil || back != in {
				t.Fatalf("instruction %d (%v) broke the wire round trip: %v (%v)", i, in, back, err)
			}
		}
	})
}

// FuzzContextWire: any byte string DecodeContext accepts re-encodes to the
// same bytes, and every EncodeWire output decodes.
func FuzzContextWire(f *testing.F) {
	f.Add(Context{}.EncodeWire())
	var c Context
	c.PC = 12345
	for i := range c.Regs {
		c.Regs[i] = uint32(i) * 0x9E3779B9
	}
	f.Add(c.EncodeWire())
	f.Add([]byte("short"))
	f.Fuzz(func(t *testing.T, b []byte) {
		ctx, err := DecodeContext(b)
		if err != nil {
			return
		}
		back := ctx.EncodeWire()
		if !bytes.Equal(b, back) {
			t.Fatalf("context wire form not canonical:\n in  %x\n out %x", b, back)
		}
	})
}
