package transport

// The control-plane bodies: every control frame (FrameLoad, FrameJobSubmit,
// FrameJobDone, FrameHalt, FrameHeartbeat, FrameReply) carries one of the
// types below in a fixed, canonical binary encoding, as the length-prefixed
// body wire.go frames. Each type has one append encoder (AppendWire) and
// one strict decoder (DecodeWire), like Context. The rules:
//
//   - integers are fixed-width big-endian: Go int fields as i64, uint32
//     fields and core ids as u32, enums as u8;
//   - every list and string is a u32 count followed by its elements;
//   - bools and optional parts are bits of a flags byte;
//   - maps are lists of (key, value) records sorted by key, so each value
//     has exactly one encoding.
//
// A decoder rejects, with ErrMalformedFrame, a body that is truncated, a
// count larger than the bytes left (before allocating anything), unknown
// flag bits or enum values, keys out of order or repeated, and trailing
// bytes. Every accepted body re-encodes to the same bytes
// (FuzzControlRoundTrip). A list with no elements decodes as nil; after an
// error the decode target holds no meaningful value.

import (
	"cmp"
	"encoding/binary"
	"slices"

	"repro/internal/geom"
	"repro/internal/isa"
)

// Encoded sizes of the fixed-size control records.
const (
	eventWireBytes       = 8 + 8 + 4 + 1 + 4 + 4 + 8 + 4 // thread, tseq, addr, kind, read, wrote, seq, home
	coreMetricsWireBytes = 4 + 11*8                      // core + eleven counters
)

// Flag bits.
const (
	loadLogEvents = 1 << 0

	replyMore   = 1 << 0
	replySample = 1 << 1 // a Sample follows the events
	replyNet    = 1 << 2 // NetStats end the body
)

// counters lists m's counters in wire order.
func (m *CoreMetrics) counters() [11]*int64 {
	return [...]*int64{&m.Instructions, &m.LocalOps, &m.RemoteReads, &m.RemoteWrites, &m.Migrations,
		&m.Evictions, &m.ContextFlits, &m.LeaseHits, &m.LeaseMisses, &m.LeaseInvals, &m.Overcommits}
}

// counters lists s's counters in wire order.
func (s *NetStats) counters() [6]*int64 {
	return [...]*int64{&s.BatchesSent, &s.MsgsSent, &s.BytesSent, &s.BatchesRecv, &s.MsgsRecv, &s.BytesRecv}
}

// --- encoders --------------------------------------------------------------

var be = binary.BigEndian

func appendInt(b []byte, v int) []byte { return be.AppendUint64(b, uint64(v)) }

func appendI64(b []byte, v int64) []byte { return be.AppendUint64(b, uint64(v)) }

func appendCount(b []byte, n int) []byte { return be.AppendUint32(b, uint32(n)) }

func appendString(b []byte, s string) []byte { return append(appendCount(b, len(s)), s...) }

func appendList[T any](b []byte, xs []T, enc func([]byte, T) []byte) []byte {
	b = appendCount(b, len(xs))
	for _, x := range xs {
		b = enc(b, x)
	}
	return b
}

// appendMap appends m as a count and (key, value) records in ascending key
// order; keys is scratch for the sort (a stack array's slice keeps small
// maps allocation-free).
func appendMap[K cmp.Ordered](b []byte, m map[K]uint32, keys []K, key func([]byte, K) []byte) []byte {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = appendCount(b, len(m))
	for _, k := range keys {
		b = be.AppendUint32(key(b, k), m[k])
	}
	return b
}

func appendMem(b []byte, m map[uint32]uint32) []byte {
	var keys [64]uint32
	return appendMap(b, m, keys[:0], be.AppendUint32)
}

func appendEvent(b []byte, e Event) []byte {
	b = appendI64(appendInt(b, e.Thread), e.TSeq)
	b = append(be.AppendUint32(b, e.Addr), byte(e.Kind))
	b = be.AppendUint32(be.AppendUint32(b, e.Read), e.Wrote)
	return be.AppendUint32(appendI64(b, e.Seq), uint32(e.Home))
}

func appendCoreMetrics(b []byte, m CoreMetrics) []byte {
	b = be.AppendUint32(b, uint32(m.Core))
	for _, c := range m.counters() {
		b = appendI64(b, *c)
	}
	return b
}

func appendNetStats(b []byte, s NetStats) []byte {
	for _, c := range s.counters() {
		b = appendI64(b, *c)
	}
	return b
}

// AppendWire appends s's control-body encoding to b: flags (LogEvents),
// GuestContexts, Quantum, NumThreads, Scheme, Placement.
func (s LoadSpec) AppendWire(b []byte) []byte {
	var flags byte
	if s.LogEvents {
		flags |= loadLogEvents
	}
	b = appendInt(appendInt(appendInt(append(b, flags), s.GuestContexts), s.Quantum), s.NumThreads)
	return appendString(appendString(b, s.Scheme), s.Placement)
}

// AppendWire appends s's control-body encoding to b: Job, the programs
// (each a list of instruction words), the register maps and the memory
// image, the maps sorted by key.
func (s JobSpec) AppendWire(b []byte) []byte {
	b = appendList(appendInt(b, s.Job), s.Programs, func(b []byte, prog []uint32) []byte {
		return appendList(b, prog, be.AppendUint32)
	})
	b = appendList(b, s.Regs, func(b []byte, regs map[int]uint32) []byte {
		var keys [isa.NumRegs]int
		return appendMap(b, regs, keys[:0], appendInt)
	})
	return appendMem(b, s.Mem)
}

// wireBytes is the length of s's control-body encoding.
func (s JobSpec) wireBytes() int {
	n := 8 + 4 + 4 + 4 + 8*len(s.Mem)
	for _, prog := range s.Programs {
		n += 4 + 4*len(prog)
	}
	for _, regs := range s.Regs {
		n += 4 + 12*len(regs)
	}
	return n
}

// AppendWire appends d's control-body encoding to b: Job.
func (d JobDone) AppendWire(b []byte) []byte {
	return appendInt(b, d.Job)
}

// AppendWire appends h's control-body encoding to b: Thread, the register
// file, Cycles, Msgs.
func (h HaltMsg) AppendWire(b []byte) []byte {
	b = appendInt(b, h.Thread)
	for _, r := range h.Regs {
		b = be.AppendUint32(b, r)
	}
	return be.AppendUint32(be.AppendUint64(b, h.Cycles), h.Msgs)
}

// AppendWire appends h's control-body encoding to b: Node, Seq.
func (h Heartbeat) AppendWire(b []byte) []byte {
	return be.AppendUint64(appendInt(b, h.Node), h.Seq)
}

// AppendWire appends r's control-body encoding to b: flags (More, and
// whether a Sample and NetStats are present), Job, Err, Events, the
// Sample (Cycle, PerCore, Guests, Words, Events, Net), PerCore, Mem sorted
// by address, and NetStats. Node is not encoded: the coordinator stamps it
// from the link.
func (r Reply) AppendWire(b []byte) []byte {
	var flags byte
	if r.More {
		flags |= replyMore
	}
	if r.Sample != nil {
		flags |= replySample
	}
	if r.Net != nil {
		flags |= replyNet
	}
	b = appendString(appendInt(append(b, flags), r.Job), r.Err)
	b = appendList(b, r.Events, appendEvent)
	if s := r.Sample; s != nil {
		b = appendList(be.AppendUint64(b, s.Cycle), s.PerCore, appendCoreMetrics)
		b = appendList(b, s.Guests, appendI64)
		b = appendNetStats(appendI64(appendI64(b, s.Words), s.Events), s.Net)
	}
	b = appendMem(appendList(b, r.PerCore, appendCoreMetrics), r.Mem)
	if r.Net != nil {
		b = appendNetStats(b, *r.Net)
	}
	return b
}

// --- decoders --------------------------------------------------------------

// bodyReader walks one control body. The first defect sticks: later reads
// return zeros and counts return 0, so a decoder runs to its end without
// allocating for a body already known to be bad, and done reports it.
type bodyReader struct {
	what string // the body's name in errors
	b    []byte
	off  int
	err  error
}

func (r *bodyReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = malformedf("%s at byte %d: "+format, append([]any{r.what, r.off}, args...)...)
	}
}

func (r *bodyReader) take(n int) []byte {
	if r.err == nil && len(r.b)-r.off < n {
		r.fail("truncated: %d of %d bytes", len(r.b)-r.off, n)
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

func (r *bodyReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *bodyReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return be.Uint32(p)
	}
	return 0
}

func (r *bodyReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return be.Uint64(p)
	}
	return 0
}

func (r *bodyReader) i64() int64 { return int64(r.u64()) }

func (r *bodyReader) int() int { return int(r.i64()) }

// flags reads a flags byte, rejecting bits outside known.
func (r *bodyReader) flags(known byte) byte {
	f := r.u8()
	if f&^known != 0 {
		r.fail("unknown flag bits %#x", f&^known)
	}
	return f
}

// count reads a list count whose elements take at least elem bytes each,
// rejecting one the bytes left cannot hold before anything is allocated
// for it.
func (r *bodyReader) count(elem int) int {
	n := int(r.u32())
	if r.err == nil && n > (len(r.b)-r.off)/elem {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *bodyReader) str() string { return string(r.take(r.count(1))) }

// done reports the first defect, or trailing bytes after a complete body.
func (r *bodyReader) done() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// list reads a list count whose elements take at least elem bytes each
// and returns xs at that length for the caller to fill, reusing its
// storage and the elements past its length: nil when empty and xs has no
// storage. (Element decoders are called in the caller's loop, not passed
// in: handing the reader to a func value would move it to the heap.)
func list[T any](r *bodyReader, elem int, xs []T) []T {
	n := r.count(elem)
	return slices.Grow(xs[:cap(xs)], max(0, n-cap(xs)))[:n]
}

// readMap reads a map written by appendMap, each key keyBytes wide and
// decoded by key: keys strictly ascending. It fills m, cleared, when m is
// not nil, and a new map otherwise (nil when the map is empty).
func readMap[K cmp.Ordered](r *bodyReader, keyBytes int, key func([]byte) K, m map[K]uint32) map[K]uint32 {
	n := r.count(keyBytes + 4)
	clear(m)
	if m == nil && n > 0 {
		m = make(map[K]uint32, n)
	}
	var prev K
	for i := 0; i < n; i++ {
		p := r.take(keyBytes)
		if p == nil {
			break
		}
		k, v := key(p), r.u32()
		if i > 0 && k <= prev {
			r.fail("key %v out of order", k)
		}
		m[k], prev = v, k
	}
	return m
}

func (r *bodyReader) mem() map[uint32]uint32 { return readMap(r, 4, be.Uint32, nil) }

func (r *bodyReader) event() Event {
	e := Event{Thread: r.int(), TSeq: r.i64(), Addr: r.u32(), Kind: EventKind(r.u8())}
	if e.Kind > EvRMW {
		r.fail("event kind %d unknown", e.Kind)
	}
	e.Read, e.Wrote, e.Seq, e.Home = r.u32(), r.u32(), r.i64(), geom.CoreID(r.u32())
	return e
}

func (r *bodyReader) coreMetrics() CoreMetrics {
	m := CoreMetrics{Core: geom.CoreID(r.u32())}
	for _, c := range m.counters() {
		*c = r.i64()
	}
	return m
}

func (r *bodyReader) netStats() NetStats {
	var s NetStats
	for _, c := range s.counters() {
		*c = r.i64()
	}
	return s
}

func (r *bodyReader) perCore() []CoreMetrics {
	ms := list[CoreMetrics](r, coreMetricsWireBytes, nil)
	for i := range ms {
		ms[i] = r.coreMetrics()
	}
	return ms
}

// DecodeWire decodes a LoadSpec control body into s, the inverse of
// AppendWire.
func (s *LoadSpec) DecodeWire(b []byte) error {
	r := bodyReader{what: "load spec", b: b}
	flags := r.flags(loadLogEvents)
	*s = LoadSpec{LogEvents: flags&loadLogEvents != 0, GuestContexts: r.int(), Quantum: r.int(), NumThreads: r.int(),
		Scheme: r.str(), Placement: r.str()}
	return r.done()
}

// DecodeWire decodes a JobSpec control body into s, the inverse of
// AppendWire. It reuses what s holds — the program slices, the register
// maps and the memory map, cleared — so a node that decodes every job
// into one JobSpec allocates only to grow it.
func (s *JobSpec) DecodeWire(b []byte) error {
	r := bodyReader{what: "job spec", b: b}
	s.Job = r.int()
	s.Programs = list(&r, 4, s.Programs)
	for t := range s.Programs {
		prog := list(&r, 4, s.Programs[t])
		for i := range prog {
			prog[i] = r.u32()
		}
		s.Programs[t] = prog
	}
	s.Regs = list(&r, 4, s.Regs)
	for t := range s.Regs {
		s.Regs[t] = readMap(&r, 8, func(p []byte) int { return int(int64(be.Uint64(p))) }, s.Regs[t])
	}
	s.Mem = readMap(&r, 4, be.Uint32, s.Mem)
	return r.done()
}

// DecodeWire decodes a JobDone control body into d, the inverse of
// AppendWire.
func (d *JobDone) DecodeWire(b []byte) error {
	r := bodyReader{what: "job done", b: b}
	*d = JobDone{Job: r.int()}
	return r.done()
}

// DecodeWire decodes a HaltMsg control body into h, the inverse of
// AppendWire.
func (h *HaltMsg) DecodeWire(b []byte) error {
	r := bodyReader{what: "halt report", b: b}
	h.Thread = r.int()
	for i := range h.Regs {
		h.Regs[i] = r.u32()
	}
	h.Cycles, h.Msgs = r.u64(), r.u32()
	return r.done()
}

// DecodeWire decodes a Heartbeat control body into h, the inverse of
// AppendWire.
func (h *Heartbeat) DecodeWire(b []byte) error {
	r := bodyReader{what: "heartbeat", b: b}
	*h = Heartbeat{Node: r.int(), Seq: r.u64()}
	return r.done()
}

// DecodeWire decodes a Reply control body into rep, the inverse of
// AppendWire. Node is left zero for the receiver to stamp.
func (rep *Reply) DecodeWire(b []byte) error {
	r := bodyReader{what: "reply", b: b}
	flags := r.flags(replyMore | replySample | replyNet)
	*rep = Reply{More: flags&replyMore != 0, Job: r.int(), Err: r.str(), Events: list[Event](&r, eventWireBytes, nil)}
	for i := range rep.Events {
		rep.Events[i] = r.event()
	}
	if flags&replySample != 0 {
		s := &Sample{Cycle: r.u64(), PerCore: r.perCore(), Guests: list[int64](&r, 8, nil)}
		for i := range s.Guests {
			s.Guests[i] = r.i64()
		}
		s.Words, s.Events, s.Net = r.i64(), r.i64(), r.netStats()
		rep.Sample = s
	}
	rep.PerCore = r.perCore()
	rep.Mem = r.mem()
	if flags&replyNet != 0 {
		net := r.netStats()
		rep.Net = &net
	}
	return r.done()
}
