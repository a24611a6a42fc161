package transport

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"
)

// TestEagerAppendWaitsForActiveFlush: an eager append made while another
// goroutine is inside Write returns only once its own frame is written —
// by that flusher's next write — so a node that replies and then closes
// the link cannot lose the reply to the close.
func TestEagerAppendWaitsForActiveFlush(t *testing.T) {
	t.Parallel()
	local, remote := net.Pipe() // a Write blocks until the other end reads it
	defer local.Close()
	defer remote.Close()
	var nc netCounters
	c := newConn(local, &nc)
	first := make(chan error, 1)
	go func() { first <- c.w.appendFrame(Frame{Kind: FrameHello, From: 1}, true) }()
	for flushing := false; !flushing; {
		time.Sleep(time.Millisecond) //em2:wallclock-ok: polls for the flusher to enter its Write; correctness never depends on it
		c.w.mu.Lock()
		flushing = c.w.flushing
		c.w.mu.Unlock()
	}
	reply := make(chan error, 1)
	go func() { reply <- c.sendReply(Reply{Job: 3, Err: "refused"}) }()
	time.Sleep(20 * time.Millisecond) //em2:wallclock-ok: gives a wrongly early return the time to show; a correct writer passes at any delay
	select {
	case err := <-reply:
		t.Fatalf("the eager reply returned (%v) while its frame was still unwritten", err)
	default:
	}
	var got []FrameKind
	errEnough := errors.New("both frames read")
	err := readBatches(bufio.NewReader(remote), &nc, func(f Frame) error {
		if got = append(got, f.Kind); f.Kind == FrameReply {
			var r Reply
			if err := r.DecodeWire(f.Blob); err != nil {
				return err
			}
			if r.Job != 3 || r.Err != "refused" {
				t.Errorf("reply = %+v, want job 3 refused", r)
			}
		}
		if len(got) == 2 {
			return errEnough
		}
		return nil
	})
	if err != errEnough {
		t.Fatal(err)
	}
	if got[0] != FrameHello || got[1] != FrameReply {
		t.Fatalf("frames %v, want the hello, then the reply", got)
	}
	for _, ch := range []chan error{first, reply} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
}
