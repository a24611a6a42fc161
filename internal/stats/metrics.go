package stats

import (
	"fmt"

	"repro/internal/transport"
)

// This file is the single home of the metrics renderers the commands
// share. em2sim's -stats table, em2node's -wire-stats line and the serve
// report's counter set were once three per-command formatters; they now
// all render a transport.Sample (or its pieces) through here, so a
// counter added to the machine appears everywhere at once.

// MetricsTable renders per-core runtime metrics as a Table — the export
// format behind `em2sim -stats` and the M3 experiment. A final "total"
// row sums every column.
func MetricsTable(perCore []transport.CoreMetrics) *Table {
	t := NewTable("per-core runtime metrics",
		"core", "instructions", "local ops", "remote reads", "remote writes",
		"migrations out", "evictions", "overcommits", "context flits",
		"lease hits", "lease misses", "lease invals")
	var total transport.CoreMetrics
	for _, m := range perCore {
		t.AddRow(int(m.Core), m.Instructions, m.LocalOps, m.RemoteReads, m.RemoteWrites,
			m.Migrations, m.Evictions, m.Overcommits, m.ContextFlits,
			m.LeaseHits, m.LeaseMisses, m.LeaseInvals)
		total = total.Add(m)
	}
	t.AddRow("total", total.Instructions, total.LocalOps, total.RemoteReads,
		total.RemoteWrites, total.Migrations, total.Evictions, total.Overcommits, total.ContextFlits,
		total.LeaseHits, total.LeaseMisses, total.LeaseInvals)
	return t
}

// NetLine renders one endpoint's wire counters as the shared one-line
// summary used by `em2node -wire-stats` and `em2sim -stats`:
//
//	sent 12 msgs in 3 batches (4.00 msgs/batch, 456 bytes), recv ...
func NetLine(s transport.NetStats) string {
	return fmt.Sprintf("sent %d msgs in %d batches (%.2f msgs/batch, %d bytes), recv %d msgs in %d batches (%d bytes)",
		s.MsgsSent, s.BatchesSent, s.MsgsPerBatch(), s.BytesSent,
		s.MsgsRecv, s.BatchesRecv, s.BytesRecv)
}

// CounterMap renders one CoreMetrics as the canonical named-counter map.
func CounterMap(t transport.CoreMetrics) map[string]int64 {
	return map[string]int64{
		"instructions":  t.Instructions,
		"migrations":    t.Migrations,
		"evictions":     t.Evictions,
		"remote_reads":  t.RemoteReads,
		"remote_writes": t.RemoteWrites,
		"local_ops":     t.LocalOps,
		"context_flits": t.ContextFlits,
		"lease_hits":    t.LeaseHits,
		"lease_misses":  t.LeaseMisses,
		"lease_invals":  t.LeaseInvals,
		"overcommits":   t.Overcommits,
	}
}
