package transport_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/transport"
)

func sampleContext() transport.Context {
	c := transport.Context{Thread: 3, Native: 1, MemSeq: 42}
	c.Arch.PC = 17
	for i := range c.Arch.Regs {
		c.Arch.Regs[i] = uint32(i * 0x01010101)
	}
	return c
}

// decodeContext decodes b into a fresh Context.
func decodeContext(b []byte) (transport.Context, error) {
	var c transport.Context
	err := c.DecodeWire(b)
	return c, err
}

func TestContextWireRoundTrip(t *testing.T) {
	withSched := sampleContext()
	withSched.Flags = transport.FlagObserved
	withSched.Sched = []byte{9, 8, 7, 6, 5}
	for _, c := range []transport.Context{
		{},
		sampleContext(),
		{Thread: -1, Native: -1, MemSeq: -7, Arch: isa.Context{PC: -1}},
		withSched,
	} {
		b := c.EncodeWire()
		if want := transport.ContextWireBytes + len(c.Sched); len(b) != want {
			t.Fatalf("encoded %d bytes, want %d", len(b), want)
		}
		back, err := decodeContext(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip: got %+v, want %+v", back, c)
		}
	}
	if _, err := decodeContext(make([]byte, 3)); err == nil {
		t.Error("short context accepted")
	}
	// A trailer longer or shorter than the header's declared Sched length is
	// protocol corruption, not a longer context.
	if _, err := decodeContext(append(withSched.EncodeWire(), 0)); err == nil {
		t.Error("over-long sched trailer accepted")
	}
	if b := withSched.EncodeWire(); true {
		if _, err := decodeContext(b[:len(b)-1]); err == nil {
			t.Error("truncated sched trailer accepted")
		}
	}
}

func TestManifestValidate(t *testing.T) {
	ok := transport.Manifest{W: 2, H: 1, Nodes: []transport.NodeSpec{
		{Addr: "a", Cores: []geom.CoreID{0}},
		{Addr: "b", Cores: []geom.CoreID{1}},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []transport.Manifest{
		{W: 0, H: 1},
		{W: 2, H: 1, Nodes: []transport.NodeSpec{{Addr: "a", Cores: []geom.CoreID{0}}}},                                          // core 1 unassigned
		{W: 2, H: 1, Nodes: []transport.NodeSpec{{Addr: "a", Cores: []geom.CoreID{0, 1}}, {Addr: "b", Cores: []geom.CoreID{1}}}}, // duplicate
		{W: 2, H: 1, Nodes: []transport.NodeSpec{{Addr: "a", Cores: []geom.CoreID{0, 5}}, {Addr: "b", Cores: []geom.CoreID{1}}}}, // out of range
		{W: 2, H: 1, Nodes: []transport.NodeSpec{{Addr: "", Cores: []geom.CoreID{0}}, {Addr: "b", Cores: []geom.CoreID{1}}}},     // no addr
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad manifest %d accepted", i)
		}
	}
}

func TestLocalManifestPartition(t *testing.T) {
	man, err := transport.LocalManifest(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := man.Cores(); got != 8 {
		t.Fatalf("cores = %d", got)
	}
}

// TestLocalTransport pins the in-process transport's contract: Take hands
// the executor every queued send in send order (so FIFO per core), each
// with its network, its context intact and Sched copied; a send never
// blocks however many are queued, and wakes the executor.
func TestLocalTransport(t *testing.T) {
	l := transport.NewLocal(4, 2)
	if l.Cores() != 4 || !l.Owns(3) || l.Owns(4) {
		t.Fatal("ownership wrong")
	}
	if got := l.Take(nil); len(got) != 0 {
		t.Fatalf("fresh transport has %d queued sends", len(got))
	}
	ctx := func(thread int32) transport.Context {
		c := sampleContext()
		c.Thread, c.Native = thread, thread%4
		c.Sched = []byte{byte(thread)}
		return c
	}
	sends := []struct {
		dst    geom.CoreID
		evict  bool
		thread int32
	}{{2, false, 5}, {1, true, 1}, {2, false, 6}, {1, true, 9}, {3, false, 2}}
	var last []byte
	for _, s := range sends {
		send, c := l.SendMigration, ctx(s.thread)
		if s.evict {
			send = l.SendEviction
		}
		if err := send(s.dst, c); err != nil {
			t.Fatal(err)
		}
		last = c.Sched
	}
	last[0] = 0 // the last sender reuses its buffer at once
	select {
	case <-l.Wake():
	default:
		t.Fatal("a send did not wake the executor")
	}
	mig, evict := transport.FrameMigration, transport.FrameEviction
	want := []transport.Arrival{
		{Kind: mig, Dst: 2, Ctx: ctx(5)}, {Kind: evict, Dst: 1, Ctx: ctx(1)},
		{Kind: mig, Dst: 2, Ctx: ctx(6)}, {Kind: evict, Dst: 1, Ctx: ctx(9)},
		{Kind: mig, Dst: 3, Ctx: ctx(2)},
	}
	if got := l.Take(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("take = %+v\nwant %+v", got, want)
	}
	if got := l.Take(nil); len(got) != 0 {
		t.Fatalf("second take returned %d sends, want none", len(got))
	}

	// Nothing takes: thousands of sends to one core still return at once.
	const many = 10_000
	done := make(chan error, 1)
	go func() {
		for i := range many {
			if err := l.SendMigration(0, ctx(int32(i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sends blocked with nothing taking them")
	}
	if got := l.Take(nil); len(got) != many || got[many-1].Ctx.Thread != many-1 {
		t.Fatalf("took %d sends, want %d in order", len(got), many)
	}
	if err := l.SendMigration(4, ctx(0)); err == nil {
		t.Error("send to a core outside the machine succeeded")
	}

	l.HandleMem(func(core geom.CoreID, req transport.MemRequest) transport.MemReply {
		return transport.MemReply{Value: uint32(core) + req.Arg}
	})
	rep, err := l.Remote(3, transport.MemRequest{Arg: 39})
	if err != nil || rep.Value != 42 {
		t.Fatalf("remote = %v, %v", rep, err)
	}
}

// TestEvictionToWrongCoreRejected: an eviction inbox holds only its core's
// natives, so a context evicted to any other core could find it full and
// block the sender (in process) or wedge the connection reader (TCP). Both
// transports refuse it before it reaches an inbox.
func TestEvictionToWrongCoreRejected(t *testing.T) {
	t.Parallel()
	c := sampleContext() // thread 3, native to core 1
	t.Run("local", func(t *testing.T) {
		l := transport.NewLocal(4, 4)
		err := l.SendEviction(0, c)
		if err == nil || !strings.Contains(err.Error(), "thread 3 to core 0") || !strings.Contains(err.Error(), "native core is 1") {
			t.Errorf("eviction to the wrong core: error %v, want one naming thread 3 and cores 0 and 1", err)
		}
		if n := len(l.Take(nil)); n != 0 {
			t.Errorf("%d contexts were queued for the executor", n)
		}
	})
	t.Run("tcp", func(t *testing.T) {
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
		n.Prepare(4)
		n.Ready()
		conn := dialNode(t, man, 0, 1)
		defer conn.Close()
		frame := transport.Frame{Kind: transport.FrameEviction, Dst: 0, Ctx: c.EncodeWire()}
		if _, err := conn.Write(transport.AppendBatch(nil, []transport.Frame{frame})); err != nil {
			t.Fatal(err)
		}
		select {
		case <-n.ShutdownC():
		case <-time.After(10 * time.Second):
			t.Fatal("node accepted an eviction for a core its context is not native to")
		}
		if k := len(n.Take(nil)); k != 0 {
			t.Errorf("%d contexts were queued for core 0", k)
		}
	})
}

// TestTCPNodesExchange wires two real Node endpoints plus a Coordinator
// over TCP loopback and pushes one of each message class through: load,
// remote access round trip, context migration, halt, collect, shutdown.
func TestTCPNodesExchange(t *testing.T) {
	man, err := transport.LocalManifest(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)

	// Node 0 owns core 0: serves memory and receives the migration through
	// MigrationIn (no machine part steps it), halts it.
	go func() {
		errs <- func() error {
			n, err := transport.ListenNode(man, 0)
			if err != nil {
				return err
			}
			defer n.Close()
			spec := <-n.Loads()
			n.Prepare(spec.NumThreads)
			n.HandleMem(func(core geom.CoreID, req transport.MemRequest) transport.MemReply {
				return transport.MemReply{Value: req.Addr + req.Arg + uint32(core)}
			})
			n.HandleControl(&stubControl{chunks: []transport.Reply{
				{PerCore: []transport.CoreMetrics{{Core: 0, Instructions: 11}}, More: true},
			}})
			n.Ready()
			if err := n.SendReply(transport.Reply{}); err != nil {
				return err
			}
			select {
			case ctx := <-n.MigrationIn(0):
				if ctx.Thread != 7 || ctx.MemSeq != 3 {
					return fmt.Errorf("node 0: migrated context %+v", ctx)
				}
				if err := n.SendHalt(transport.HaltMsg{Thread: int(ctx.Thread), Regs: ctx.Arch.Regs}); err != nil {
					return err
				}
			case <-time.After(10 * time.Second):
				return fmt.Errorf("node 0: no migration arrived")
			}
			<-n.ShutdownC()
			return nil
		}()
	}()

	// Node 1 owns core 1: performs a remote access at core 0, then ships a
	// context there.
	go func() {
		errs <- func() error {
			n, err := transport.ListenNode(man, 1)
			if err != nil {
				return err
			}
			defer n.Close()
			spec := <-n.Loads()
			n.Prepare(spec.NumThreads)
			n.HandleMem(func(geom.CoreID, transport.MemRequest) transport.MemReply { return transport.MemReply{} })
			n.HandleControl(&stubControl{chunks: []transport.Reply{
				{PerCore: []transport.CoreMetrics{{Core: 1, Instructions: 31}}, More: true},
			}})
			n.Ready()
			if err := n.SendReply(transport.Reply{}); err != nil {
				return err
			}
			rep, err := n.Remote(0, transport.MemRequest{Thread: 7, Op: transport.OpRead, Addr: 40, Arg: 2})
			if err != nil {
				return err
			}
			if rep.Value != 42 {
				return fmt.Errorf("node 1: remote reply %d, want 42", rep.Value)
			}
			ctx := sampleContext()
			ctx.Thread, ctx.Native, ctx.MemSeq = 7, 0, 3
			// Migrations coalesce in the batch buffer; the machine's
			// executor flushes at the end of every round, so a raw transport
			// client flushes explicitly.
			if err := n.SendMigration(0, ctx); err != nil {
				return err
			}
			if err := n.Flush(); err != nil {
				return err
			}
			<-n.ShutdownC()
			return nil
		}()
	}()

	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Load(&transport.LoadSpec{NumThreads: 8}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-co.Halts():
		if h.Thread != 7 {
			t.Fatalf("halt for thread %d", h.Thread)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no halt report")
	}
	reps, err := co.Collect(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Node != 0 || reps[1].Node != 1 {
		t.Fatalf("collect replies %+v", reps)
	}
	if len(reps[0].PerCore) != 1 || len(reps[1].PerCore) != 1 ||
		reps[0].PerCore[0].Instructions+reps[1].PerCore[0].Instructions != 42 {
		t.Fatalf("collected rows %+v, %+v", reps[0].PerCore, reps[1].PerCore)
	}
	co.Shutdown()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
