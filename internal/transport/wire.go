package transport

// The wire: every TCP connection carries a stream of *batches*, each a
// fixed 8-byte header followed by a run of self-delimiting frames. Every
// frame is fixed, canonical binary with no reflection. Contexts, evictions
// and remote-access round trips have fixed layouts here; the control plane
// (requests, replies, halts, heartbeats) rides the same framing as
// length-prefixed bodies whose binary codecs live in control.go. Frames
// encode straight into a per-connection batch buffer, written with one
// syscall per batch, so a node ships all its ready messages to a peer in a
// single write and a warm send allocates nothing. DESIGN.md §6 documents
// the layout, when a node writes, and why its readers never block.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// FrameKind classifies one wire frame.
type FrameKind uint8

// The frame kinds. Migration, eviction, memory request and memory reply
// (with the lease reply and lease write-update) are the data plane; the
// rest are the coordinator's control plane. The coordinator sends
// requests — Load, JobSubmit, JobDone, SampleReq, Collect — and every node
// answers each one with FrameReply: once, or as a run of replies ending in
// one without More (collect streams one per core). Halt and Heartbeat are
// the only unsolicited node frames: a thread's HALT report and the
// advisory liveness beat. The blank slots are retired reply kinds; the
// decoder rejects them like any unknown kind, so every live kind keeps its
// value.
const (
	FrameHello FrameKind = iota + 1
	FrameMigration
	FrameEviction
	FrameMemReq
	FrameMemRep
	FrameLoad
	FrameHalt
	FrameCollect
	_ // 9: barrier collect reply
	FrameShutdown
	FrameJobSubmit
	_ // 12: job ack
	FrameJobDone
	_ // 14: load ack
	FrameHeartbeat
	_ // 16: collect chunk
	_ // 17: job retired
	// FrameSampleReq asks a node for one non-destructive metrics Sample
	// (kind byte only). The sample plane is advisory — like heartbeats, its
	// replies never enter a deterministic surface unless the sampler itself
	// is deterministic (the serve loop's virtual-time ticks, where the
	// machine is quiescent).
	FrameSampleReq
	_ // 19: sample reply
	// FrameLeaseRep is a remote-read reply that also grants a read lease:
	// the same id/value as FrameMemRep plus the granted window, so plain
	// replies keep their compact encoding. FrameLeaseInval carries a
	// write-update to a lease holder: the new value of a held word. It is
	// advisory for correctness (holders expire on their own virtual
	// clocks) but keeps cached values within one lease window of the home
	// copy.
	FrameLeaseRep
	FrameLeaseInval
	// FrameReply is a node's answer to the coordinator's current request:
	// one Reply.
	FrameReply
)

const (
	// WireVersion is the protocol version carried in every batch header; a
	// mismatch is protocol corruption. Version 4 shrank the FrameJobDone
	// body to the Job alone (a retire empties the node). Version 3 gave
	// the control bodies their binary encodings (control.go) under
	// unchanged kind bytes; version 2 carried them as JSON.
	WireVersion = 4
	// BatchHeaderLen is the fixed batch header: u32 payload length, u16
	// frame count, u8 version, u8 reserved (zero).
	BatchHeaderLen = 8
	// MaxBatchBytes caps a batch payload; a header declaring more is
	// rejected as malformed rather than honored as an allocation request.
	MaxBatchBytes = 64 << 20

	// memReqBody is the fixed body size of a FrameMemReq after the kind
	// byte: dst u32 + id u64 + thread u32 + tseq u64 + op u8 + addr u32 +
	// arg u32 + from u32 + lease u16.
	memReqBody = 4 + 8 + 4 + 8 + 1 + 4 + 4 + 4 + 2
	// memRepBody is the fixed body size of a FrameMemRep: id u64 + value u32.
	memRepBody = 8 + 4
	// leaseRepBody is the fixed body size of a FrameLeaseRep: id u64 +
	// value u32 + lease u16.
	leaseRepBody = 8 + 4 + 2
	// leaseInvalBody is the fixed body size of a FrameLeaseInval: dst u32 +
	// addr u32 + value u32.
	leaseInvalBody = 4 + 4 + 4

	// MemReqFrameBytes and MemRepFrameBytes are the full on-wire sizes
	// (kind byte included) of one remote-access request and reply frame —
	// the payloads the cost model charges for a remote round trip, exported
	// so the machine's per-thread cycle accounting bills exactly what the
	// wire would carry. LeaseRepFrameBytes is the reply size when the home
	// grants a lease; LeaseInvalFrameBytes is one write-update to a holder.
	MemReqFrameBytes     = 1 + memReqBody
	MemRepFrameBytes     = 1 + memRepBody
	LeaseRepFrameBytes   = 1 + leaseRepBody
	LeaseInvalFrameBytes = 1 + leaseInvalBody

	// flushThreshold force-flushes a batch buffer that grows past this many
	// bytes even between explicit Flush calls, bounding buffer memory.
	flushThreshold = 256 << 10
	// maxBatchFrames is the u16 frame-count ceiling per batch.
	maxBatchFrames = 1<<16 - 1
	// maxPendingBytes bounds how far a batch buffer may grow while another
	// goroutine is mid-flush; producers that would exceed it wait for the
	// flusher to swap the buffer out.
	maxPendingBytes = 8 << 20
	// maxBlobBytes caps one control body so that body + header + every
	// frame already coalesced in the buffer (bounded by maxPendingBytes
	// plus one in-flight frame) still fits a legal MaxBatchBytes batch.
	maxBlobBytes = MaxBatchBytes - maxPendingBytes - (1 << 17)
)

// ErrMalformedFrame tags every structural wire error: truncated or
// oversized batches, unknown frame kinds, bad lengths. Receivers treat it
// as protocol corruption — fail loudly, never hang.
var ErrMalformedFrame = errors.New("transport: malformed frame")

func malformedf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrMalformedFrame}, args...)...)
}

// Frame is one decoded wire frame. Ctx and Blob are views into the decode
// buffer: valid only until the emit callback returns.
type Frame struct {
	Kind FrameKind
	From int32       // FrameHello: sender's node index, or coordinatorID
	Dst  geom.CoreID // FrameMigration, FrameEviction, FrameMemReq
	ID   uint64      // FrameMemReq, FrameMemRep
	Ctx  []byte      // FrameMigration, FrameEviction: canonical Context bytes
	Req  MemRequest  // FrameMemReq
	Rep  MemReply    // FrameMemRep, FrameLeaseRep
	Inv  LeaseInval  // FrameLeaseInval
	Blob []byte      // control-plane kinds (Load, Halt, job, heartbeat, reply frames): the body (control.go)
}

// AppendFrame appends f's wire encoding (kind byte + body) to b: the one
// encoder per frame layout, the batch writer's included. A context frame's
// body is self-delimiting (its own SchedLen header is the only length on
// the wire); with Ctx empty, AppendFrame writes just the frame header and
// the batch writer serializes the Context after it in place (AppendWire).
func AppendFrame(b []byte, f Frame) []byte {
	b = append(b, byte(f.Kind))
	switch f.Kind {
	case FrameMigration, FrameEviction:
		return append(be.AppendUint32(b, uint32(f.Dst)), f.Ctx...)
	case FrameHello:
		return be.AppendUint32(b, uint32(f.From))
	case FrameMemReq:
		b = be.AppendUint32(b, uint32(f.Dst))
		b = be.AppendUint64(b, f.ID)
		b = be.AppendUint32(b, uint32(f.Req.Thread))
		b = be.AppendUint64(b, uint64(f.Req.TSeq))
		b = append(b, byte(f.Req.Op))
		b = be.AppendUint32(b, f.Req.Addr)
		b = be.AppendUint32(b, f.Req.Arg)
		b = be.AppendUint32(b, f.Req.From)
		return be.AppendUint16(b, f.Req.Lease)
	case FrameMemRep, FrameLeaseRep:
		b = be.AppendUint64(b, f.ID)
		b = be.AppendUint32(b, f.Rep.Value)
		if f.Kind == FrameLeaseRep {
			b = be.AppendUint16(b, f.Rep.Lease)
		}
		return b
	case FrameLeaseInval:
		b = be.AppendUint32(b, uint32(f.Inv.Dst))
		b = be.AppendUint32(b, f.Inv.Addr)
		return be.AppendUint32(b, f.Inv.Value)
	case FrameLoad, FrameHalt, FrameJobSubmit, FrameJobDone, FrameHeartbeat, FrameReply:
		return append(be.AppendUint32(b, uint32(len(f.Blob))), f.Blob...)
	case FrameCollect, FrameShutdown, FrameSampleReq:
		return b // kind byte only
	default:
		panic(fmt.Sprintf("transport: AppendFrame of unknown kind %d", f.Kind))
	}
}

// parseFrame decodes the first frame of b and returns it with the number
// of bytes consumed. Ctx/Blob are views into b.
func parseFrame(b []byte) (Frame, int, error) {
	if len(b) == 0 {
		return Frame{}, 0, malformedf("empty frame")
	}
	f := Frame{Kind: FrameKind(b[0])}
	p := b[1:]
	need := func(n int) error {
		if len(p) < n {
			return malformedf("frame kind %d truncated: %d of %d body bytes", f.Kind, len(p), n)
		}
		return nil
	}
	switch f.Kind {
	case FrameHello:
		if err := need(4); err != nil {
			return Frame{}, 0, err
		}
		f.From = int32(binary.BigEndian.Uint32(p))
		return f, 1 + 4, nil
	case FrameMigration, FrameEviction:
		if err := need(4 + ContextWireBytes); err != nil {
			return Frame{}, 0, err
		}
		f.Dst = geom.CoreID(binary.BigEndian.Uint32(p))
		ctx := p[4:]
		// The context is self-delimiting: its SchedLen header declares the
		// trailer. DecodeWire re-validates the total.
		total := ContextWireBytes + int(binary.BigEndian.Uint16(ctx[schedLenOffset:]))
		if len(ctx) < total {
			return Frame{}, 0, malformedf("context frame truncated: %d of %d bytes", len(ctx), total)
		}
		f.Ctx = ctx[:total]
		return f, 1 + 4 + total, nil
	case FrameMemReq:
		if err := need(memReqBody); err != nil {
			return Frame{}, 0, err
		}
		f.Dst = geom.CoreID(binary.BigEndian.Uint32(p))
		f.ID = binary.BigEndian.Uint64(p[4:])
		f.Req.Thread = int32(binary.BigEndian.Uint32(p[12:]))
		f.Req.TSeq = int64(binary.BigEndian.Uint64(p[16:]))
		if p[24] > byte(OpSwap) {
			return Frame{}, 0, malformedf("memory op %d unknown", p[24])
		}
		f.Req.Op = MemOp(p[24])
		f.Req.Addr = binary.BigEndian.Uint32(p[25:])
		f.Req.Arg = binary.BigEndian.Uint32(p[29:])
		f.Req.From = binary.BigEndian.Uint32(p[33:])
		f.Req.Lease = binary.BigEndian.Uint16(p[37:])
		return f, 1 + memReqBody, nil
	case FrameMemRep:
		if err := need(memRepBody); err != nil {
			return Frame{}, 0, err
		}
		f.ID = binary.BigEndian.Uint64(p)
		f.Rep.Value = binary.BigEndian.Uint32(p[8:])
		return f, 1 + memRepBody, nil
	case FrameLeaseRep:
		if err := need(leaseRepBody); err != nil {
			return Frame{}, 0, err
		}
		f.ID = binary.BigEndian.Uint64(p)
		f.Rep.Value = binary.BigEndian.Uint32(p[8:])
		f.Rep.Lease = binary.BigEndian.Uint16(p[12:])
		return f, 1 + leaseRepBody, nil
	case FrameLeaseInval:
		if err := need(leaseInvalBody); err != nil {
			return Frame{}, 0, err
		}
		f.Inv.Dst = geom.CoreID(binary.BigEndian.Uint32(p))
		f.Inv.Addr = binary.BigEndian.Uint32(p[4:])
		f.Inv.Value = binary.BigEndian.Uint32(p[8:])
		return f, 1 + leaseInvalBody, nil
	case FrameLoad, FrameHalt, FrameJobSubmit, FrameJobDone, FrameHeartbeat, FrameReply:
		if err := need(4); err != nil {
			return Frame{}, 0, err
		}
		n := int(binary.BigEndian.Uint32(p))
		if n > MaxBatchBytes || len(p)-4 < n {
			return Frame{}, 0, malformedf("control frame declares %d body bytes, %d present", n, len(p)-4)
		}
		f.Blob = p[4 : 4+n]
		return f, 1 + 4 + n, nil
	case FrameCollect, FrameShutdown, FrameSampleReq:
		return f, 1, nil
	default:
		return Frame{}, 0, malformedf("unknown frame kind %d", f.Kind)
	}
}

// AppendBatch appends one whole batch — header plus every frame — to b.
func AppendBatch(b []byte, frames []Frame) []byte {
	if len(frames) > maxBatchFrames {
		panic(fmt.Sprintf("transport: %d frames exceed the u16 batch count", len(frames)))
	}
	start := len(b)
	b = append(b, make([]byte, BatchHeaderLen)...)
	for _, f := range frames {
		b = AppendFrame(b, f)
	}
	finishBatch(b[start:], len(frames))
	return b
}

// finishBatch patches the header of a fully appended batch in place. b must
// begin at the header.
func finishBatch(b []byte, count int) {
	binary.BigEndian.PutUint32(b, uint32(len(b)-BatchHeaderLen))
	binary.BigEndian.PutUint16(b[4:], uint16(count))
	b[6] = WireVersion
	b[7] = 0
}

// parseBatchHeader validates a batch header and returns the payload length
// and frame count.
func parseBatchHeader(h []byte) (payloadLen, count int, err error) {
	payloadLen = int(binary.BigEndian.Uint32(h))
	count = int(binary.BigEndian.Uint16(h[4:]))
	if h[6] != WireVersion {
		return 0, 0, malformedf("batch version %d, want %d", h[6], WireVersion)
	}
	if h[7] != 0 {
		return 0, 0, malformedf("batch reserved byte %d, want 0", h[7])
	}
	if payloadLen > MaxBatchBytes {
		return 0, 0, malformedf("batch declares %d payload bytes, above the %d-byte cap", payloadLen, MaxBatchBytes)
	}
	return payloadLen, count, nil
}

// parseBatchPayload walks count frames through payload, calling emit for
// each; the entire payload must be consumed exactly.
func parseBatchPayload(payload []byte, count int, emit func(Frame) error) error {
	for i := 0; i < count; i++ {
		f, n, err := parseFrame(payload)
		if err != nil {
			return err
		}
		payload = payload[n:]
		if err := emit(f); err != nil {
			return err
		}
	}
	if len(payload) != 0 {
		return malformedf("%d bytes of trailing garbage after the declared frames", len(payload))
	}
	return nil
}

// DecodeBatch parses b as exactly one batch (header + payload), calling
// emit for every frame with views into b. Any structural defect — version
// or length mismatch, unknown kind, truncation, trailing bytes — returns an
// error wrapping ErrMalformedFrame. Accepted batches re-encode
// byte-identically via AppendBatch (the encoding is canonical).
func DecodeBatch(b []byte, emit func(Frame) error) error {
	if len(b) < BatchHeaderLen {
		return malformedf("batch header %d of %d bytes", len(b), BatchHeaderLen)
	}
	payloadLen, count, err := parseBatchHeader(b[:BatchHeaderLen])
	if err != nil {
		return err
	}
	if len(b)-BatchHeaderLen != payloadLen {
		return malformedf("batch declares %d payload bytes, %d present", payloadLen, len(b)-BatchHeaderLen)
	}
	return parseBatchPayload(b[BatchHeaderLen:], count, emit)
}

// NetStats is one endpoint's wire-level traffic counters. BatchesSent
// counts write syscalls (one per flushed batch); MsgsSent counts frames, so
// MsgsSent/BatchesSent is the realized coalescing factor.
type NetStats struct {
	BatchesSent int64 `json:"batches_sent"`
	MsgsSent    int64 `json:"msgs_sent"`
	BytesSent   int64 `json:"bytes_sent"`
	BatchesRecv int64 `json:"batches_recv"`
	MsgsRecv    int64 `json:"msgs_recv"`
	BytesRecv   int64 `json:"bytes_recv"`
}

// Add returns the field-wise sum of s and o.
func (s NetStats) Add(o NetStats) NetStats {
	s.BatchesSent += o.BatchesSent
	s.MsgsSent += o.MsgsSent
	s.BytesSent += o.BytesSent
	s.BatchesRecv += o.BatchesRecv
	s.MsgsRecv += o.MsgsRecv
	s.BytesRecv += o.BytesRecv
	return s
}

// Sub returns the field-wise difference s − o, for deltas between two
// cumulative snapshots.
func (s NetStats) Sub(o NetStats) NetStats {
	s.BatchesSent -= o.BatchesSent
	s.MsgsSent -= o.MsgsSent
	s.BytesSent -= o.BytesSent
	s.BatchesRecv -= o.BatchesRecv
	s.MsgsRecv -= o.MsgsRecv
	s.BytesRecv -= o.BytesRecv
	return s
}

// MsgsPerBatch is the realized send-side coalescing factor: frames shipped
// per write syscall.
func (s NetStats) MsgsPerBatch() float64 {
	if s.BatchesSent == 0 {
		return 0
	}
	return float64(s.MsgsSent) / float64(s.BatchesSent)
}

// netCounters is the atomic backing store behind NetStats, shared by every
// connection of one endpoint.
type netCounters struct {
	batchesSent, msgsSent, bytesSent atomic.Int64
	batchesRecv, msgsRecv, bytesRecv atomic.Int64
}

func (c *netCounters) snapshot() NetStats {
	return NetStats{
		BatchesSent: c.batchesSent.Load(),
		MsgsSent:    c.msgsSent.Load(),
		BytesSent:   c.bytesSent.Load(),
		BatchesRecv: c.batchesRecv.Load(),
		MsgsRecv:    c.msgsRecv.Load(),
		BytesRecv:   c.bytesRecv.Load(),
	}
}

// batchWriter coalesces outbound frames for one connection. Frames append
// under the mutex into a buffer whose first BatchHeaderLen bytes are
// reserved for the header; a flush patches the header and ships the whole
// batch with one Write. Data-plane frames wait for the node's Flush;
// control frames flush immediately — carrying every deferred frame ahead
// of them in the same syscall. The flusher-role loop keeps exactly one
// goroutine writing while later enqueuers keep appending, so an append
// never waits for a write in progress and bursts coalesce even between
// explicit flushes. The writer owns two buffers: the flusher swaps
// the filled one for the spare, writes it, and keeps it as the next spare.
type batchWriter struct {
	c  net.Conn
	nc *netCounters

	mu       sync.Mutex
	cond     *sync.Cond // signaled when the flusher swaps the buffer out
	buf      []byte     // header-prefixed frames, count of them
	spare    []byte     // nil while the flusher has it on the wire
	count    int
	flushing bool
	err      error // sticky: first write failure poisons the connection
}

// init wires the writer in place (the cond must reference the writer's
// own mutex at its final address — a batchWriter is never copied after
// init).
func (w *batchWriter) init(c net.Conn, nc *netCounters) {
	w.c = c
	w.nc = nc
	w.cond = sync.NewCond(&w.mu)
	w.buf = newBatchBuf()
	w.spare = newBatchBuf()
}

// newBatchBuf returns an empty batch buffer: the reserved header bytes.
func newBatchBuf() []byte { return make([]byte, BatchHeaderLen, 4<<10) }

// begin locks the writer and readies the buffer for one append. On success
// the lock is HELD; the caller must follow with finish. When another
// goroutine is mid-flush and the pending buffer is already at its frame or
// byte cap, begin waits for the flusher to swap it out — the u16 batch
// frame count must never be exceeded, no matter how slow a Write is.
func (w *batchWriter) begin() error {
	w.mu.Lock()
	for w.err == nil && w.flushing && (w.count >= maxBatchFrames || len(w.buf) >= maxPendingBytes) {
		w.cond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	return nil
}

// finish completes an append started by begin (lock held): it counts the
// frame, enforces the buffer caps, and flushes when asked. It releases the
// lock.
func (w *batchWriter) finish(flushNow bool) error {
	w.count++
	if !flushNow && len(w.buf) < flushThreshold && w.count < maxBatchFrames {
		w.mu.Unlock()
		return nil
	}
	return w.flushLocked()
}

// flush ships everything buffered. Safe to call concurrently; if another
// goroutine is mid-flush it will pick up frames appended meanwhile, so a
// caller may return immediately.
func (w *batchWriter) flush() error {
	w.mu.Lock()
	return w.flushLocked()
}

// flushLocked drains the buffer with one Write per accumulated batch. The
// lock is held on entry and released on return. While the active flusher is
// inside Write, concurrent enqueuers keep appending to a fresh buffer; the
// flusher loops until nothing is pending, which is what coalesces bursts
// into few syscalls.
func (w *batchWriter) flushLocked() error {
	if w.flushing || w.count == 0 || w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.flushing = true
	for w.count > 0 && w.err == nil {
		buf, count := w.buf, w.count
		w.buf, w.spare, w.count = w.spare, nil, 0
		w.cond.Broadcast() // producers waiting on the caps may proceed
		w.mu.Unlock()

		finishBatch(buf, count)
		_, err := w.c.Write(buf)
		if err == nil {
			w.nc.batchesSent.Add(1)
			w.nc.msgsSent.Add(int64(count))
			w.nc.bytesSent.Add(int64(len(buf)))
		}
		if cap(buf) > 1<<20 {
			buf = newBatchBuf() // don't let one oversized burst pin memory
		}

		w.mu.Lock()
		w.spare = buf[:BatchHeaderLen]
		if err != nil && w.err == nil {
			w.err = err
		}
	}
	w.flushing = false
	w.cond.Broadcast() // release cap-waiters on error exit, too
	err := w.err
	w.mu.Unlock()
	return err
}

// appendCtx enqueues a context frame, deferred for the next Flush — the
// data-plane coalescing path. The context encodes straight into the batch
// buffer: no intermediate slice.
func (w *batchWriter) appendCtx(kind FrameKind, dst geom.CoreID, ctx Context) error {
	if err := w.begin(); err != nil {
		return err
	}
	w.buf = ctx.AppendWire(AppendFrame(w.buf, Frame{Kind: kind, Dst: dst}))
	return w.finish(false)
}

// appendFrame enqueues a frame that is not a context, written at once when
// eager: a control frame, or a hello. A node's data-plane frames — a
// remote-access request, its reply, a lease write-update — are deferred
// like contexts and leave with the executor's next Flush. A body that
// could not fit a legal batch is rejected here, at the point of origin,
// instead of being shipped for every receiver to kill the run as protocol
// corruption.
func (w *batchWriter) appendFrame(f Frame, eager bool) error {
	if len(f.Blob) > maxBlobBytes {
		return errBodyTooLarge(len(f.Blob))
	}
	if err := w.begin(); err != nil {
		return err
	}
	w.buf = AppendFrame(w.buf, f)
	return w.finish(eager)
}

// appendControl enqueues a control frame and flushes like an eager
// appendFrame, with body (a control type's AppendWire) encoding straight
// into the batch buffer behind the frame's kind byte and length — no
// intermediate slice. The length is patched in once the body is written.
func (w *batchWriter) appendControl(kind FrameKind, body func([]byte) []byte) error {
	if err := w.begin(); err != nil {
		return err
	}
	start := len(w.buf)
	w.buf = body(append(w.buf, byte(kind), 0, 0, 0, 0))
	n := len(w.buf) - start - 5
	if n > maxBlobBytes {
		w.buf = w.buf[:start]
		w.mu.Unlock()
		return errBodyTooLarge(n)
	}
	binary.BigEndian.PutUint32(w.buf[start+1:], uint32(n))
	return w.finish(true)
}

func errBodyTooLarge(n int) error {
	return fmt.Errorf("transport: %d-byte control body exceeds the %d-byte limit", n, maxBlobBytes)
}

// readBatches drains batches from br until an error, dispatching every
// frame to emit. Structural defects return an error wrapping
// ErrMalformedFrame (including a connection cut mid-batch, which is
// indistinguishable from truncation); a connection closed at a batch
// boundary returns io.EOF. The payload buffer is reused across batches, so
// emit must not retain Frame views.
func readBatches(br *bufio.Reader, nc *netCounters, emit func(Frame) error) error {
	var hdr [BatchHeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return malformedf("connection cut mid-header")
			}
			return err
		}
		payloadLen, count, err := parseBatchHeader(hdr[:])
		if err != nil {
			return err
		}
		if cap(payload) < payloadLen {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return malformedf("batch truncated: %v", err)
		}
		nc.batchesRecv.Add(1)
		nc.msgsRecv.Add(int64(count))
		nc.bytesRecv.Add(int64(BatchHeaderLen + payloadLen))
		if err := parseBatchPayload(payload, count, emit); err != nil {
			return err
		}
	}
}
