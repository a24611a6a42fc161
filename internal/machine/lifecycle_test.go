package machine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestAwaitHalts drives the one halt collector over plain channels through
// every way a run can end. It is also Machine.Run's witness for the
// duplicate/unknown-halt rejection, which the in-process machine gained
// when it moved onto the shared collector; TestClusterRunRejectsBogusHalts
// is the end-to-end one.
func TestAwaitHalts(t *testing.T) {
	t.Parallel()
	halt := func(thread int) transport.HaltMsg {
		h := transport.HaltMsg{Thread: thread, Cycles: uint64(100 + thread)}
		h.Regs[1] = uint32(thread + 1)
		return h
	}
	for _, tc := range []struct {
		name    string
		n       int
		halts   []transport.HaltMsg
		close   bool          // close the halt channel after halts
		death   error         // reported after halts
		delay   time.Duration // before the first halt
		timeout time.Duration
		diag    func() string
		want    string // "" = success
	}{
		{name: "happy path, any arrival order", n: 3, halts: []transport.HaltMsg{halt(2), halt(0), halt(1)}, timeout: 10 * time.Second},
		{name: "closed channel", n: 2, halts: []transport.HaltMsg{halt(0)}, close: true, timeout: 10 * time.Second,
			want: "halt channel closed with 1 of 2 threads halted"},
		{name: "thread -1", n: 2, halts: []transport.HaltMsg{halt(-1)}, timeout: 10 * time.Second, want: "unknown thread -1"},
		{name: "thread n", n: 2, halts: []transport.HaltMsg{halt(0), halt(2)}, timeout: 10 * time.Second, want: "unknown thread 2"},
		{name: "duplicate", n: 2, halts: []transport.HaltMsg{halt(0), halt(0)}, timeout: 10 * time.Second,
			want: "duplicate halt report for thread 0"},
		{name: "death before the last halt", n: 2, halts: []transport.HaltMsg{halt(1)}, death: errors.New("connection to node 1 lost"),
			timeout: 10 * time.Second, want: "cluster run failed with 1 of 2 threads halted: connection to node 1 lost"},
		{name: "timeout with diagnosis", n: 2, halts: []transport.HaltMsg{halt(0)}, timeout: 20 * time.Millisecond,
			diag: func() string { return "last heartbeats: node 0 silent" },
			want: "timed out with 1 of 2 threads halted (last heartbeats: node 0 silent)"},
		{name: "timeout without diagnosis", n: 1, timeout: 20 * time.Millisecond, want: "timed out with 0 of 1 threads halted"},
		{name: "zero timeout never fires", n: 2, halts: []transport.HaltMsg{halt(1), halt(0)}, delay: 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// One feeder over unbuffered channels delivers the script in
			// order, as one link's reader would: halts, then the close or
			// the death that follows them.
			halts := make(chan transport.HaltMsg)
			deaths := make(chan error)
			done := make(chan struct{})
			defer close(done)
			go func() {
				if tc.delay > 0 {
					<-time.After(tc.delay)
				}
				for _, h := range tc.halts {
					select {
					case halts <- h:
					case <-done:
						return
					}
				}
				if tc.close {
					close(halts)
				}
				if tc.death != nil {
					select {
					case deaths <- tc.death:
					case <-done:
					}
				}
			}()
			got, err := AwaitHalts(tc.n, halts, deaths, idleTimer(), tc.timeout, tc.diag)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("AwaitHalts error %v, want it to contain %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for th, h := range got {
				if h != halt(th) {
					t.Fatalf("halt[%d] = %+v, want thread %d's own report", th, h, th)
				}
			}
		})
	}
}
