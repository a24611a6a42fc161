package isa

import (
	"encoding/binary"
	"fmt"
)

// Context is the architectural execution context a migration carries: the
// program counter plus the full register file — exactly ContextBits of
// state, the quantity the paper's cost model charges per migration. The
// runtime wraps it with routing metadata (thread id, native core); this
// type is only the part a hardware context transfer would serialize.
type Context struct {
	PC   int32
	Regs [NumRegs]uint32
}

// ContextWireBytes is the exact size of an encoded Context: ContextBits/8.
const ContextWireBytes = ContextBits / 8

// AppendWire appends the fixed-size big-endian encoding of c to b: the PC
// word followed by the NumRegs register words.
func (c Context) AppendWire(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(c.PC))
	for _, r := range c.Regs {
		b = binary.BigEndian.AppendUint32(b, r)
	}
	return b
}

// DecodeContext is the inverse of AppendWire. The input must be exactly
// ContextWireBytes long; every such input decodes successfully, and
// decode∘encode is the identity.
func DecodeContext(b []byte) (Context, error) {
	if len(b) != ContextWireBytes {
		return Context{}, fmt.Errorf("isa: context wire length %d, want %d", len(b), ContextWireBytes)
	}
	var c Context
	c.PC = int32(binary.BigEndian.Uint32(b))
	for i := range c.Regs {
		c.Regs[i] = binary.BigEndian.Uint32(b[4+4*i:])
	}
	return c, nil
}
