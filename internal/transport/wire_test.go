package transport_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/transport"
)

// sampleFrames covers every frame kind with realistic bodies: the control
// kinds carry every body of sampleControl.
func sampleFrames() []transport.Frame {
	ctx := sampleContext()
	ctx.Sched = []byte{1, 2, 3, 4, 5}
	frames := []transport.Frame{
		{Kind: transport.FrameHello, From: -1},
		{Kind: transport.FrameMigration, Dst: 2, Ctx: ctx.EncodeWire()},
		{Kind: transport.FrameEviction, Dst: 1, Ctx: transport.Context{}.EncodeWire()},
		{Kind: transport.FrameMemReq, Dst: 3, ID: 99,
			Req: transport.MemRequest{Thread: 7, TSeq: -1, Op: transport.OpSwap, Addr: 128, Arg: 5, From: 3}},
		{Kind: transport.FrameMemReq, Dst: 3, ID: 100,
			Req: transport.MemRequest{Thread: 7, TSeq: 9, Op: transport.OpRead, Addr: 128, From: 2, Lease: 64}},
		{Kind: transport.FrameMemRep, ID: 99, Rep: transport.MemReply{Value: 42}},
		{Kind: transport.FrameLeaseRep, ID: 100, Rep: transport.MemReply{Value: 42, Lease: 64}},
		{Kind: transport.FrameLeaseInval, Inv: transport.LeaseInval{Dst: 2, Addr: 128, Value: 43}},
		{Kind: transport.FrameCollect},
		{Kind: transport.FrameShutdown},
		{Kind: transport.FrameSampleReq},
	}
	for _, c := range sampleControl() {
		frames = append(frames, transport.Frame{Kind: c.kind, Blob: c.body.AppendWire(nil)})
	}
	return frames
}

// retiredKinds are the reserved slots of retired control frames — the
// barrier collect reply (9) and the per-request replies FrameReply
// replaced: job ack (12), load ack (14), collect chunk (16), job retired
// (17) and sample reply (19). No constant names them, and the decoder must
// reject every one.
var retiredKinds = []transport.FrameKind{9, 12, 14, 16, 17, 19}

// TestSampleFramesCoverEveryKind keeps sampleFrames honest: every declared
// FrameKind must appear in the round-trip corpus, so adding a kind without
// extending the corpus fails here (and under em2lint's framecheck).
func TestSampleFramesCoverEveryKind(t *testing.T) {
	t.Parallel()
	covered := make(map[transport.FrameKind]bool)
	for _, f := range sampleFrames() {
		covered[f.Kind] = true
	}
	for k := transport.FrameHello; k <= transport.FrameReply; k++ {
		if slices.Contains(retiredKinds, k) {
			continue
		}
		if !covered[k] {
			t.Errorf("frame kind %d missing from sampleFrames round-trip corpus", k)
		}
	}
}

// TestBatchRoundTrip: every frame kind survives encode → decode with its
// fields intact, and the re-encoding is byte-identical.
func TestBatchRoundTrip(t *testing.T) {
	t.Parallel()
	frames := sampleFrames()
	batch := transport.AppendBatch(nil, frames)
	var got []transport.Frame
	if err := transport.DecodeBatch(batch, func(f transport.Frame) error {
		// Ctx/Blob are views; copy them so the collected frames are stable.
		f.Ctx = append([]byte(nil), f.Ctx...)
		f.Blob = append([]byte(nil), f.Blob...)
		got = append(got, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if got[i].Kind != frames[i].Kind || got[i].From != frames[i].From ||
			got[i].Dst != frames[i].Dst || got[i].ID != frames[i].ID ||
			got[i].Req != frames[i].Req || got[i].Rep != frames[i].Rep ||
			got[i].Inv != frames[i].Inv ||
			!bytes.Equal(got[i].Ctx, frames[i].Ctx) {
			t.Errorf("frame %d: got %+v, want %+v", i, got[i], frames[i])
		}
		// Empty blobs decode as empty views, not nil — compare content.
		if string(got[i].Blob) != string(frames[i].Blob) {
			t.Errorf("frame %d blob: %q vs %q", i, got[i].Blob, frames[i].Blob)
		}
	}
	if back := transport.AppendBatch(nil, got); !bytes.Equal(batch, back) {
		t.Fatalf("re-encode not canonical:\n in  %x\n out %x", batch, back)
	}
}

// TestDecodeBatchRejectsMalformed: every structural defect errors (wrapping
// ErrMalformedFrame) instead of being silently honored.
func TestDecodeBatchRejectsMalformed(t *testing.T) {
	t.Parallel()
	good := transport.AppendBatch(nil, sampleFrames())
	nop := func(transport.Frame) error { return nil }

	mutate := func(name string, f func([]byte) []byte) {
		b := f(append([]byte(nil), good...))
		if err := transport.DecodeBatch(b, nop); !errors.Is(err, transport.ErrMalformedFrame) {
			t.Errorf("%s: got %v, want ErrMalformedFrame", name, err)
		}
	}
	mutate("short header", func(b []byte) []byte { return b[:4] })
	mutate("truncated payload", func(b []byte) []byte { return b[:len(b)-3] })
	mutate("trailing garbage", func(b []byte) []byte { return append(b, 0xFF) })
	mutate("bad version", func(b []byte) []byte { b[6] = 9; return b })
	mutate("reserved byte set", func(b []byte) []byte { b[7] = 1; return b })
	mutate("undercounted frames", func(b []byte) []byte {
		binary.BigEndian.PutUint16(b[4:], binary.BigEndian.Uint16(b[4:])-1)
		return b
	})
	mutate("overcounted frames", func(b []byte) []byte {
		binary.BigEndian.PutUint16(b[4:], binary.BigEndian.Uint16(b[4:])+1)
		return b
	})
	mutate("unknown frame kind", func(b []byte) []byte { b[transport.BatchHeaderLen] = 0xEE; return b })

	// An oversized declared payload must be rejected up front, not treated
	// as an allocation request.
	var hdr [transport.BatchHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], transport.MaxBatchBytes+1)
	hdr[6] = transport.WireVersion
	if err := transport.DecodeBatch(hdr[:], nop); err == nil {
		t.Error("oversized batch accepted")
	}

	// A memory request with an unknown op is corruption, not a new opcode.
	reqBatch := transport.AppendBatch(nil, []transport.Frame{{
		Kind: transport.FrameMemReq, Dst: 0, ID: 1, Req: transport.MemRequest{Op: transport.OpSwap},
	}})
	reqBatch[transport.BatchHeaderLen+1+4+8+4+8] = 200 // the op byte
	if err := transport.DecodeBatch(reqBatch, nop); err == nil {
		t.Error("unknown memory op accepted")
	}
}

// TestRetiredKindsRejected: a frame that is well formed as a
// length-prefixed control frame but carries a retired kind byte is an
// unknown kind, not an old reply honored — a node or coordinator built
// before FrameReply fails loudly against this one.
func TestRetiredKindsRejected(t *testing.T) {
	t.Parallel()
	for _, k := range retiredKinds {
		frame := append([]byte{byte(k)}, 0, 0, 0, 2, '{', '}')
		b := make([]byte, transport.BatchHeaderLen)
		binary.BigEndian.PutUint32(b, uint32(len(frame)))
		binary.BigEndian.PutUint16(b[4:], 1)
		b[6] = transport.WireVersion
		err := transport.DecodeBatch(append(b, frame...), func(transport.Frame) error { return nil })
		if !errors.Is(err, transport.ErrMalformedFrame) || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Errorf("retired kind %d: got %v, want an unknown-kind ErrMalformedFrame", k, err)
		}
	}
}

// dialNode opens a raw TCP connection to man.Nodes[idx] and introduces
// itself as peer `from` with a valid hello batch.
func dialNode(t *testing.T, man transport.Manifest, idx int, from int32) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", man.Nodes[idx].Addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	hello := transport.AppendBatch(nil, []transport.Frame{{Kind: transport.FrameHello, From: from}})
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNodeRejectsMalformedBatch: a node fed a structurally corrupt batch on
// an identified connection must shut down with an error — visibly and
// promptly — rather than hang the run or honor a hostile length.
func TestNodeRejectsMalformedBatch(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		send func() []byte
	}{
		{"oversized batch", func() []byte {
			var hdr [transport.BatchHeaderLen]byte
			binary.BigEndian.PutUint32(hdr[:], transport.MaxBatchBytes+1)
			binary.BigEndian.PutUint16(hdr[4:], 1)
			hdr[6] = transport.WireVersion
			return hdr[:]
		}},
		{"truncated batch", func() []byte {
			// Header promises 100 payload bytes; the connection delivers 10
			// and closes.
			var b [transport.BatchHeaderLen + 10]byte
			binary.BigEndian.PutUint32(b[:], 100)
			binary.BigEndian.PutUint16(b[4:], 1)
			b[6] = transport.WireVersion
			return b[:]
		}},
		{"wrong version", func() []byte {
			b := transport.AppendBatch(nil, []transport.Frame{{Kind: transport.FrameCollect}})
			b[6] = 1
			return b
		}},
		{"undecodable context", func() []byte {
			// A well-formed frame whose context bytes lie about their own
			// arch payload: sched length larger than the frame delivers is
			// caught at the frame layer, so corrupt the PC-side instead by
			// truncating through the frame length. Build by hand: a
			// migration frame with a context one byte short.
			ctx := sampleContext().EncodeWire()
			frame := []byte{byte(transport.FrameMigration), 0, 0, 0, 0}
			frame = append(frame, ctx[:len(ctx)-1]...)
			b := make([]byte, transport.BatchHeaderLen)
			binary.BigEndian.PutUint32(b, uint32(len(frame)))
			binary.BigEndian.PutUint16(b[4:], 1)
			b[6] = transport.WireVersion
			return append(b, frame...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			man, err := transport.LocalManifest(2, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			n, err := transport.ListenNode(man, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			c := dialNode(t, man, 0, 1)
			defer c.Close()
			if _, err := c.Write(tc.send()); err != nil {
				t.Fatal(err)
			}
			c.Close() // for the truncated case: cut the stream mid-batch
			select {
			case <-n.ShutdownC():
				// The node detected corruption and released itself.
			case <-time.After(10 * time.Second):
				t.Fatal("node still waiting after a malformed batch — it would hang the run")
			}
		})
	}
}

// TestNodeRejectsOutOfRangeData: a ready node indexes its per-thread decode
// slots, its per-core call slots and its link's request queue by numbers a
// peer sends, so each out-of-range number must fail the node loudly instead
// of indexing past a table or wedging the reader.
func TestNodeRejectsOutOfRangeData(t *testing.T) {
	t.Parallel()
	ctx := sampleContext() // thread 3
	ctx.Native = 0
	req := transport.Frame{Kind: transport.FrameMemReq, Dst: 0, Req: transport.MemRequest{Op: transport.OpRead}}
	cases := []struct {
		name   string
		frames []transport.Frame
	}{
		{"thread outside the slot pool", []transport.Frame{{Kind: transport.FrameMigration, Dst: 0, Ctx: ctx.EncodeWire()}}},
		{"reply to a core outside the mesh", []transport.Frame{{Kind: transport.FrameMemRep, ID: 2}}},
		// Peer 1 owns one core: one request queued, and a second is more
		// than its cores can have in flight.
		{"more remote ops than the peer has cores", []transport.Frame{req, req}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			man, err := transport.LocalManifest(2, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			n, err := transport.ListenNode(man, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			n.Prepare(2)
			n.Ready() // no executor takes the queue: requests stay owed
			c := dialNode(t, man, 0, 1)
			defer c.Close()
			if _, err := c.Write(transport.AppendBatch(nil, tc.frames)); err != nil {
				t.Fatal(err)
			}
			select {
			case <-n.ShutdownC():
			case <-time.After(10 * time.Second):
				t.Fatal("node accepted the out-of-range frame")
			}
		})
	}
}

// badControl is a control frame whose body is wrong in one way, and what
// the receiver's error must name.
type badControl struct {
	name, want string
	frame      transport.Frame
}

// malformedControl returns the control frames TestNodeRejectsMalformedControl
// sends, by receiver: job specs and a load spec for a node, replies, a halt
// report and a heartbeat for the coordinator.
func malformedControl() (toNode, toCoord []badControl) {
	be := binary.BigEndian
	spec := transport.JobSpec{Job: 1, Programs: [][]uint32{{1}}, Regs: []map[int]uint32{nil},
		Mem: map[uint32]uint32{16: 1, 32: 2}}.AppendWire(nil)
	// secondAddr rewrites the second address of a body ending in a
	// two-word memory image.
	secondAddr := func(b []byte, a uint32) []byte {
		b = slices.Clone(b)
		be.PutUint32(b[len(b)-8:], a)
		return b
	}
	reply := transport.Reply{Events: sampleEvents(2), Mem: map[uint32]uint32{16: 1, 32: 2}}.AppendWire(nil)
	badKind := slices.Clone(reply)
	badKind[1+8+4+4+8+8+4] = 9 // the first event's kind byte
	frame := func(kind transport.FrameKind, body []byte) transport.Frame {
		return transport.Frame{Kind: kind, Blob: body}
	}
	toNode = []badControl{
		{"truncated job spec", "job spec", frame(transport.FrameJobSubmit, spec[:len(spec)-3])},
		// 2^30 programs: allocating them first would take 24 GiB.
		{"job spec claiming 2^30 programs", "count 1073741824 exceeds",
			frame(transport.FrameJobSubmit, be.AppendUint32(be.AppendUint64(nil, 1), 1<<30))},
		{"job spec with a duplicate mem key", "job spec", frame(transport.FrameJobSubmit, secondAddr(spec, 16))},
		{"job spec with unsorted mem keys", "out of order", frame(transport.FrameJobSubmit, secondAddr(spec, 8))},
		{"job spec with a trailing byte", "1 trailing bytes", frame(transport.FrameJobSubmit, append(slices.Clone(spec), 0))},
		{"job done with a trailing byte", "job done",
			frame(transport.FrameJobDone, append(transport.JobDone{}.AppendWire(nil), 0))},
		{"load spec with an unknown flag bit", "load spec",
			frame(transport.FrameLoad, append([]byte{0x40}, transport.LoadSpec{}.AppendWire(nil)[1:]...))},
	}
	toCoord = []badControl{
		{"reply with an unknown flag bit", "reply", frame(transport.FrameReply, append([]byte{0x80}, reply[1:]...))},
		{"truncated reply", "reply", frame(transport.FrameReply, reply[:len(reply)-1])},
		{"reply with a duplicate mem key", "reply", frame(transport.FrameReply, secondAddr(reply, 16))},
		{"reply with an unknown event kind", "event kind 9", frame(transport.FrameReply, badKind)},
		{"reply claiming 2^30 events", "count 1073741824 exceeds",
			frame(transport.FrameReply, be.AppendUint32(make([]byte, 1+8+4), 1<<30))},
		{"truncated halt report", "halt report", frame(transport.FrameHalt, make([]byte, 20))},
		{"heartbeat with a trailing byte", "heartbeat", frame(transport.FrameHeartbeat, make([]byte, 17))},
	}
	return toNode, toCoord
}

// TestNodeRejectsMalformedControl: a control body that breaks the binary
// encoding — truncated, a count past the bytes left, keys repeated or out
// of order, an unknown flag bit or enum value, trailing bytes — drops the
// link as protocol corruption, naming the
// body, with no panic and nothing allocated for the claimed count. A node
// shuts down; a coordinator reports the node's death.
func TestNodeRejectsMalformedControl(t *testing.T) {
	t.Parallel()
	toNode, toCoord := malformedControl()
	for _, tc := range toNode {
		t.Run("node/"+tc.name, func(t *testing.T) {
			t.Parallel()
			man, err := transport.LocalManifest(1, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			n, err := transport.ListenNode(man, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if tc.frame.Kind != transport.FrameLoad {
				n.Prepare(1)
				n.HandleMem(func(geom.CoreID, transport.MemRequest) transport.MemReply { return transport.MemReply{} })
				n.HandleControl(&stubControl{})
				n.Ready()
			}
			c := dialNode(t, man, 0, -1)
			defer c.Close()
			if _, err := c.Write(transport.AppendBatch(nil, []transport.Frame{tc.frame})); err != nil {
				t.Fatal(err)
			}
			select {
			case <-n.ShutdownC():
			case <-time.After(10 * time.Second):
				t.Fatal("node accepted the malformed control body")
			}
			if err := n.Fault(); !errors.Is(err, transport.ErrMalformedFrame) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("node failed with %v, want an ErrMalformedFrame naming %q", err, tc.want)
			}
		})
	}
	for _, tc := range toCoord {
		t.Run("coordinator/"+tc.name, func(t *testing.T) {
			t.Parallel()
			man, lns, err := transport.LocalListeners(1, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer lns[0].Close()
			co, err := transport.DialCluster(man, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			c, err := lns[0].Accept() // the test plays the node
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(transport.AppendBatch(nil, []transport.Frame{tc.frame})); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-co.Deaths():
				if !errors.Is(err, transport.ErrMalformedFrame) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("coordinator reported %v, want an ErrMalformedFrame naming %q", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("coordinator accepted the malformed control body")
			}
		})
	}
}

// TestDeferredSendsCoalesce pins the batching contract: context sends
// buffer silently until Flush, then the whole burst leaves as one batch —
// one write syscall — and arrives intact.
func TestDeferredSendsCoalesce(t *testing.T) {
	t.Parallel()
	const burst = 5
	man, err := transport.LocalManifest(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := transport.ListenNode(man, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sink.Prepare(burst)
	sink.HandleMem(func(geom.CoreID, transport.MemRequest) transport.MemReply { return transport.MemReply{} })
	sink.Ready()

	src, err := transport.ListenNode(man, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	ctx := sampleContext()
	ctx.Native = 1
	for i := 0; i < burst; i++ {
		if err := src.SendEviction(1, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if s := src.NetStats(); s.BatchesSent != 0 || s.MsgsSent != 0 {
		t.Fatalf("deferred sends hit the wire early: %+v", s)
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	s := src.NetStats()
	if s.BatchesSent != 1 || s.MsgsSent != burst {
		t.Fatalf("flush shipped %d msgs in %d batches, want %d in 1", s.MsgsSent, s.BatchesSent, burst)
	}
	var got []transport.Arrival
	for len(got) < burst {
		select {
		case <-sink.Wake():
			got = append(got, sink.Take(nil)...)
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d burst contexts arrived", len(got), burst)
		}
	}
	for i, a := range got {
		if a.Kind != transport.FrameEviction || a.Dst != 1 || a.Ctx.Thread != ctx.Thread {
			t.Fatalf("context %d arrived mangled: %+v", i, a)
		}
	}
}

// TestRemoteFailsWhenPeerDies: an in-flight Remote whose peer connection
// dies must fail promptly with a lost-connection error — not stall until
// the cluster-wide timeout. The peer queues the request and never answers:
// no executor takes its queue.
func TestRemoteFailsWhenPeerDies(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := transport.ListenNode(man, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sink.Prepare(1)
	sink.Ready()

	src, err := transport.ListenNode(man, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	done := make(chan error, 1)
	go func() {
		_, err := src.Remote(1, transport.MemRequest{Op: transport.OpRead, Addr: 64})
		done <- err
	}()
	//em2:wallclock-ok: gives the request real time to reach the peer's socket
	time.Sleep(200 * time.Millisecond)
	sink.Close() // the peer dies with the reply owed
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Remote returned success after its peer died")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Remote still blocked after its peer died — it would stall the run")
	}
}

// TestWireHotPathZeroAlloc pins the data plane's allocation-free invariant:
// encoding and decoding contexts and batches into reused storage must not
// allocate.
func TestWireHotPathZeroAlloc(t *testing.T) {
	ctx := sampleContext()
	ctx.Sched = []byte{1, 2, 3, 4, 5, 6, 7, 8}
	buf := make([]byte, 0, ctx.WireLen())
	if n := testing.AllocsPerRun(100, func() {
		buf = ctx.AppendWire(buf[:0])
	}); n != 0 {
		t.Errorf("Context.AppendWire into a reused buffer: %.0f allocs, want 0", n)
	}

	wire := ctx.EncodeWire()
	var out transport.Context
	if err := out.DecodeWire(wire); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := out.DecodeWire(wire); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Context.DecodeWire with reused Sched storage: %.0f allocs, want 0", n)
	}

	frames := sampleFrames()
	batch := transport.AppendBatch(nil, frames)
	if n := testing.AllocsPerRun(100, func() {
		batch = transport.AppendBatch(batch[:0], frames)
	}); n != 0 {
		t.Errorf("AppendBatch into a reused buffer: %.0f allocs, want 0", n)
	}

	emit := func(transport.Frame) error { return nil }
	if n := testing.AllocsPerRun(100, func() {
		if err := transport.DecodeBatch(batch, emit); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeBatch: %.0f allocs, want 0", n)
	}

	// The TCP paths, on a 3x1 mesh: src is node 0, sink node 1, and a bare
	// connection speaks for the never-started node 2.
	man, err := transport.LocalManifest(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := transport.ListenNode(man, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sink, err := transport.ListenNode(man, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sink.Prepare(4)
	sink.Ready()
	raw := dialNode(t, man, 1, 2)
	defer raw.Close()

	// The executor's paths, driven by hand: what it sends leaves with its
	// round-end Flush, and what arrives it takes from the queue.
	ctx.Native = 1
	stuck := time.NewTimer(30 * time.Second) // one timer: time.After allocates
	defer stuck.Stop()
	var in []transport.Arrival
	arrive := func(n *transport.Node) {
		for {
			select {
			case <-n.Wake():
			case <-stuck.C:
				t.Fatal("nothing arrived")
			}
			if in = n.Take(in); len(in) > 0 {
				return
			}
		}
	}
	inbound := transport.AppendBatch(nil, []transport.Frame{{Kind: transport.FrameMigration, Dst: 1, Ctx: ctx.EncodeWire()}})
	req := transport.MemRequest{Op: transport.OpRead, Addr: 64}
	for _, p := range []struct {
		name string
		run  func()
	}{
		{"deferred migration and the executor's flush (Node.SendMigration, Node.Flush)", func() {
			if err := src.SendMigration(1, ctx); err != nil {
				t.Fatal(err)
			}
			if err := src.Flush(); err != nil {
				t.Fatal(err)
			}
			arrive(sink)
		}},
		{"inbound context decoded into the queue (Node.Take)", func() {
			if _, err := raw.Write(inbound); err != nil {
				t.Fatal(err)
			}
			arrive(sink)
		}},
		{"remote request, answer and reply poll (Node.Request, Node.Answer, Node.Poll)", func() {
			if err := src.Request(1, req); err != nil {
				t.Fatal(err)
			}
			if err := src.Flush(); err != nil {
				t.Fatal(err)
			}
			arrive(sink)
			if err := sink.Answer(&in[0], transport.MemReply{Value: 1}); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			for {
				if rep, done, err := src.Poll(0); done {
					if err != nil || rep.Value != 1 {
						t.Fatalf("reply %+v, %v", rep, err)
					}
					return
				}
				select {
				case <-src.Wake():
				case <-stuck.C:
					t.Fatal("reply never landed")
				}
			}
		}},
	} {
		for i := 0; i < 10; i++ {
			p.run() // warm: queue slots, read buffers
		}
		if n := testing.AllocsPerRun(100, p.run); n != 0 {
			t.Errorf("%s: %.0f allocs, want 0", p.name, n)
		}
	}

	// The control paths. A bare connection plays src's coordinator and
	// drains what src sends it; a stub node answers a real coordinator.
	coordLink := dialNode(t, man, 0, -1)
	defer coordLink.Close()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := coordLink.Read(buf); err != nil {
				return
			}
		}
	}()
	retire := transport.Reply{Job: 9, Events: sampleEvents(32)}
	stubMan, err := transport.LocalManifest(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stubErrs := serveStub(stubMan, 0, &stubControl{})
	co, err := transport.DialCluster(stubMan, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Load(&transport.LoadSpec{NumThreads: 1}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	done := transport.JobDone{Job: 9}
	for _, p := range []struct {
		name string
		run  func()
	}{
		{"node encoding a 32-event retire Reply into its link (Node.SendReply)", func() {
			if err := src.SendReply(retire); err != nil {
				t.Fatal(err)
			}
		}},
		{"coordinator broadcast of a JobDone, answered (Coordinator.RetireJob)", func() {
			if _, err := co.RetireJob(done, time.Minute); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		for i := 0; i < 10; i++ {
			p.run()
		}
		if n := testing.AllocsPerRun(100, p.run); n != 0 {
			t.Errorf("%s: %.0f allocs, want 0", p.name, n)
		}
	}
	co.Shutdown()
	if err := <-stubErrs; err != nil {
		t.Fatal(err)
	}
}

// FuzzFrameRoundTrip: any byte string DecodeBatch accepts must re-encode —
// frame by frame through AppendBatch — to exactly the same bytes: the
// batch format, like the context wire form, is canonical. The corpus seeds
// every frame kind, an empty batch, and assorted corruptions.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(transport.AppendBatch(nil, nil))
	f.Add(transport.AppendBatch(nil, sampleFrames()))
	f.Add(transport.AppendBatch(nil, sampleFrames()[:3]))
	ctx := sampleContext()
	ctx.Sched = []byte{9, 9, 9}
	f.Add(transport.AppendBatch(nil, []transport.Frame{
		{Kind: transport.FrameMigration, Dst: 1, Ctx: ctx.EncodeWire()},
		{Kind: transport.FrameMemRep, ID: 1, Rep: transport.MemReply{Value: 7}},
	}))
	bad := transport.AppendBatch(nil, sampleFrames())
	bad[6] = transport.WireVersion + 1 // future version
	f.Add(bad)
	f.Add([]byte{0, 0, 0, 1, 0, 1, transport.WireVersion, 0, byte(transport.FrameShutdown)})
	f.Add([]byte("short"))
	f.Fuzz(func(t *testing.T, b []byte) {
		var frames []transport.Frame
		err := transport.DecodeBatch(b, func(fr transport.Frame) error {
			fr.Ctx = append([]byte(nil), fr.Ctx...)
			fr.Blob = append([]byte(nil), fr.Blob...)
			frames = append(frames, fr)
			return nil
		})
		if err != nil {
			return
		}
		back := transport.AppendBatch(nil, frames)
		if !bytes.Equal(b, back) {
			t.Fatalf("batch not canonical:\n in  %x\n out %x", b, back)
		}
	})
}
