package transport_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// FuzzWireContext: any byte string DecodeWire accepts must re-encode to
// exactly the same bytes (the wire form is canonical — there is one
// encoding per context, which is what lets the differential tests compare
// transports bit-for-bit). The corpus covers the predictor-state trailer:
// contexts carrying real history-scheme bytes, a mid-instruction observed
// flag, and corrupt length declarations.
func FuzzWireContext(f *testing.F) {
	f.Add(transport.Context{}.EncodeWire())
	c := transport.Context{Thread: 5, Native: 2, MemSeq: 99, Flags: transport.FlagObserved}
	c.Arch.PC = -3
	for i := range c.Arch.Regs {
		c.Arch.Regs[i] = 0xDEAD0000 + uint32(i)
	}
	f.Add(c.EncodeWire())
	// A context whose Sched trailer is genuine history-predictor state.
	pred := core.NewHistory(2).NewPredictor(0)
	pred.Observe(1, 0x1000)
	pred.Observe(1, 0x1040)
	pred.Observe(2, 0x2000)
	c.Sched = pred.AppendState(nil)
	f.Add(c.EncodeWire())
	f.Add(make([]byte, transport.ContextWireBytes))
	f.Add(make([]byte, transport.ContextWireBytes+7)) // header says 0 sched bytes, 7 present
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		ctx, err := decodeContext(b)
		if err != nil {
			return
		}
		back := ctx.EncodeWire()
		if !bytes.Equal(b, back) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", b, back)
		}
		again, err := decodeContext(back)
		if err != nil || !reflect.DeepEqual(again, ctx) {
			t.Fatalf("re-decode diverged: %+v vs %+v (%v)", again, ctx, err)
		}
	})
}

// FuzzControlRoundTrip: for every control body kind, any byte string the
// kind's decoder accepts must re-encode to exactly the same bytes — the
// control bodies, like the frames around them, are canonical. The corpus
// seeds one encoded value of every kind, a reply with events, one with a
// sample, and a collect chunk with Mem, More and Net.
func FuzzControlRoundTrip(f *testing.F) {
	for _, s := range sampleControl() {
		f.Add(byte(s.kind), s.body.AppendWire(nil))
	}
	f.Add(byte(transport.FrameReply), []byte{0x08})
	f.Fuzz(func(t *testing.T, kind byte, b []byte) {
		v := newControlBody(transport.FrameKind(kind))
		if v == nil || v.DecodeWire(b) != nil {
			return
		}
		if back := v.AppendWire(nil); !bytes.Equal(b, back) {
			t.Fatalf("kind %d body not canonical:\n in  %x\n out %x", kind, b, back)
		}
	})
}
