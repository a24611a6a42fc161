package machine

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/geom"
)

// decodeSCLog turns fuzz bytes into an event log and its initial image.
// The first byte picks 1–3 threads, whether every event is a write (so
// value legality passes and the cycle check decides), and whether address
// 4 starts preloaded. Each further four bytes make one event:
//
//	b0: thread (b0 % threads) and kind ((b0>>2) % 3: read, write, RMW)
//	b1: address (b1 % 4, of 0, 4, 64, 68); b1 < 13 — about 1 in 20 —
//	    serves it at the other home
//	b2: witness key: Seq is b2<<16 | event index, unique per log
//	b3: the written value; for a read or RMW, an even b3 reads what the
//	    witness order says and an odd one reads b3>>1
//
// TSeq counts each thread's events, so (Thread, TSeq) is unique and both
// checkers' verdicts are defined by the same graph.
func decodeSCLog(data []byte) (map[uint32]uint32, []Event) {
	if len(data) == 0 {
		return nil, nil
	}
	h, data := data[0], data[1:]
	threads := 1 + int(h%3)
	allWrites := h&4 != 0
	var init map[uint32]uint32
	if h&8 != 0 {
		init = map[uint32]uint32{4: 7}
	}
	const maxEvents = 64
	addrs := [4]uint32{0, 4, 64, 68}
	var events []Event
	var tseq [3]int64
	var honest []bool // per event: its read half takes the witness value
	for i := 0; i+4 <= len(data) && len(events) < maxEvents; i += 4 {
		b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		th := int(b0) % threads
		addr := addrs[b1%4]
		home := int(addr / 64)
		if b1 < 13 {
			home = 1 - home
		}
		e := Event{
			Thread: th,
			TSeq:   tseq[th],
			Addr:   addr,
			Kind:   []EventKind{EvRead, EvWrite, EvRMW}[(b0>>2)%3],
			Seq:    int64(b2)<<16 | int64(len(events)),
			Home:   geom.CoreID(home),
		}
		tseq[th]++
		if allWrites {
			e.Kind = EvWrite
		}
		switch e.Kind {
		case EvWrite:
			e.Wrote = uint32(b3)
		case EvRead:
			e.Read = uint32(b3 >> 1)
		case EvRMW:
			e.Read, e.Wrote = uint32(b3>>1), uint32(b3)+1
		}
		events = append(events, e)
		honest = append(honest, b3&1 == 0)
	}
	// Give honest reads the value the witness order says they see.
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		x, y := events[a], events[b]
		return cmp.Or(cmp.Compare(x.Addr, y.Addr), cmp.Compare(x.Home, y.Home), cmp.Compare(x.Seq, y.Seq))
	})
	cur := map[uint32]uint32{}
	for _, i := range order {
		e := &events[i]
		if _, ok := cur[e.Addr]; !ok {
			cur[e.Addr] = init[e.Addr]
		}
		if e.Kind != EvWrite && honest[i] {
			e.Read = cur[e.Addr]
		}
		if e.Kind != EvRead {
			cur[e.Addr] = e.Wrote
		}
	}
	return init, events
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzCheckSC holds SCChecker to the checker it replaced: the same verdict
// and the same error text on every log, from a fresh checker and from one
// whose scratch a larger and a smaller log have already used.
func FuzzCheckSC(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		init, events := decodeSCLog(data)
		want := errText(refCheckSCFrom(init, events))
		if got := errText(CheckSCFrom(init, events)); got != want {
			t.Fatalf("CheckSCFrom = %s\nreference  = %s", got, want)
		}
		var c SCChecker
		_ = c.Check(init, append(slices.Clone(events), Event{Thread: 3, Addr: 128})) // em2:errsink-ok: only dirties the scratch
		_ = c.Check(init, events[:len(events)/2])                                    // em2:errsink-ok: only dirties the scratch
		if got := errText(c.Check(init, events)); got != want {
			t.Fatalf("reused SCChecker = %s\nreference       = %s", got, want)
		}
	})
}

// TestSCCheckerZeroAlloc pins the serve retirement path's SC check at zero
// allocations: a reused checker over the events of a mix session's three
// job kinds allocates nothing once its scratch has grown.
func TestSCCheckerZeroAlloc(t *testing.T) {
	jobs := []Litmus{
		StoreBufferingLitmus(64),
		AtomicCounterLitmus(3, 4),
		RandomLitmus(2011, RandOpts{PrivateWrites: true}),
	}
	events := make([][]Event, len(jobs))
	for i, lit := range jobs {
		_, res := runLitmus(t, litmusConfig(), lit)
		if len(res.Events) == 0 {
			t.Fatalf("%s logged no events", lit.Name)
		}
		events[i] = res.Events
	}
	var c SCChecker
	check := func() {
		for i, lit := range jobs {
			if err := c.Check(lit.Mem, events[i]); err != nil {
				t.Fatalf("%s: %v", lit.Name, err)
			}
		}
	}
	check()
	if allocs := testing.AllocsPerRun(100, check); allocs != 0 {
		t.Errorf("SCChecker.Check allocates %.1f times per mix round, want 0", allocs)
	}
}
