package transport

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestGather drives the coordinator's one barrier over plain channels —
// no sockets — through every way it can end. Replies answer a load, the
// request whose "queued reply beats the death that explains it" rule the
// barrier must keep.
func TestGather(t *testing.T) {
	t.Parallel()
	errDeath := errors.New("transport: connection to node 1 lost: EOF")
	for _, tc := range []struct {
		name    string
		replies []Reply
		death   error
		timeout time.Duration
		want    string // "" = success
		checked int    // replies check must have seen
	}{
		{name: "all replies", replies: []Reply{{Node: 0}, {Node: 1}}, timeout: 10 * time.Second, checked: 2},
		{name: "reply check fails", replies: []Reply{{Node: 0, Err: "unknown scheme"}, {Node: 1}}, timeout: 10 * time.Second,
			want: "node 0 failed to load: unknown scheme", checked: 1},
		{name: "death, nothing queued", death: errDeath, timeout: 10 * time.Second, want: "connection to node 1 lost"},
		{name: "death, explaining reply queued", replies: []Reply{{Node: 1, Err: "bad placement"}}, death: errDeath, timeout: 10 * time.Second,
			want: "node 1 failed to load: bad placement", checked: 1},
		{name: "death, only healthy replies queued", replies: []Reply{{Node: 0}}, death: errDeath, timeout: 10 * time.Second,
			want: "connection to node 1 lost", checked: 1},
		{name: "timeout", replies: []Reply{{Node: 0}}, timeout: 20 * time.Millisecond,
			want: "load: 1 of 2 nodes replied before timeout", checked: 1},
		// Two answers from node 0 must not stand in for node 1's: the
		// barrier would release while node 1 has not done the work.
		{name: "second reply from one node", replies: []Reply{{Node: 0}, {Node: 0}}, timeout: 10 * time.Second,
			want: "load: second reply from node 0", checked: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			replies := make(chan Reply, 2)
			deaths := make(chan error, 1)
			checked := 0
			check := func(r Reply) error {
				checked++
				if r.Err != "" {
					return fmt.Errorf("transport: node %d failed to load: %s", r.Node, r.Err)
				}
				return nil
			}
			for _, r := range tc.replies {
				replies <- r
			}
			if tc.death != nil {
				// With a reply and the death both ready the select may take
				// either first; both orders must end in the same error.
				deaths <- tc.death
			}
			err := gather("load", 2, replies, deaths, time.After(tc.timeout), check)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("gather failed: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("gather error %v, want it to contain %q", err, tc.want)
			}
			if checked != tc.checked {
				t.Fatalf("check saw %d replies, want %d", checked, tc.checked)
			}
		})
	}
}
