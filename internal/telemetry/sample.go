package telemetry

import (
	"strconv"

	"repro/internal/transport"
)

// AppendSamplePoints appends the deterministic line-protocol rendering of
// s to b: one "core" point per sampled core carrying its runtime
// counters and the guest gauge, then one "machine" point with the shard
// footprint gauges, all stamped with cycle. The encoding is hand-rolled
// appends (no Point construction, no fmt), so sampling into a reused
// buffer is allocation-free (machine.TestSampleEncodeZeroAlloc holds it
// at 0).
//
// Sample.Net is deliberately absent: wire batching differs per transport,
// and this stream must be byte-identical across them (see the package
// comment).
func AppendSamplePoints(b []byte, s *transport.Sample, cycle uint64) []byte {
	for i := range s.PerCore {
		m := &s.PerCore[i]
		b = append(b, "core,core="...)
		b = strconv.AppendInt(b, int64(m.Core), 10)
		b = append(b, " instructions="...)
		b = strconv.AppendInt(b, m.Instructions, 10)
		b = append(b, "i,local_ops="...)
		b = strconv.AppendInt(b, m.LocalOps, 10)
		b = append(b, "i,remote_reads="...)
		b = strconv.AppendInt(b, m.RemoteReads, 10)
		b = append(b, "i,remote_writes="...)
		b = strconv.AppendInt(b, m.RemoteWrites, 10)
		b = append(b, "i,migrations="...)
		b = strconv.AppendInt(b, m.Migrations, 10)
		b = append(b, "i,evictions="...)
		b = strconv.AppendInt(b, m.Evictions, 10)
		b = append(b, "i,context_flits="...)
		b = strconv.AppendInt(b, m.ContextFlits, 10)
		b = append(b, "i,lease_hits="...)
		b = strconv.AppendInt(b, m.LeaseHits, 10)
		b = append(b, "i,lease_misses="...)
		b = strconv.AppendInt(b, m.LeaseMisses, 10)
		b = append(b, "i,lease_invals="...)
		b = strconv.AppendInt(b, m.LeaseInvals, 10)
		b = append(b, "i,overcommits="...)
		b = strconv.AppendInt(b, m.Overcommits, 10)
		b = append(b, "i,guests="...)
		if i < len(s.Guests) {
			b = strconv.AppendInt(b, s.Guests[i], 10)
		} else {
			b = append(b, '0')
		}
		b = append(b, "i "...)
		b = strconv.AppendUint(b, cycle, 10)
		b = append(b, '\n')
	}
	b = append(b, "machine words="...)
	b = strconv.AppendInt(b, s.Words, 10)
	b = append(b, "i,events="...)
	b = strconv.AppendInt(b, s.Events, 10)
	b = append(b, "i "...)
	b = strconv.AppendUint(b, cycle, 10)
	return append(b, '\n')
}

// EmitSample encodes s into buf (reused across calls) and writes the
// lines to sink, returning the buffer for reuse.
func EmitSample(sink Sink, buf []byte, s *transport.Sample, cycle uint64) ([]byte, error) {
	buf = AppendSamplePoints(buf[:0], s, cycle)
	return buf, sink.Write(buf)
}
