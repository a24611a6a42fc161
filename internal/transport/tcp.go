package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/isa"
)

// Manifest describes a cluster: the mesh dimensions and which node process
// owns (serves the shards and runs the core loops of) which cores. The
// core sets must partition the mesh exactly.
type Manifest struct {
	W     int        `json:"w"`
	H     int        `json:"h"`
	Nodes []NodeSpec `json:"nodes"`
}

// NodeSpec is one node process: its listen address and owned cores.
type NodeSpec struct {
	Addr  string        `json:"addr"`
	Cores []geom.CoreID `json:"cores"`
}

// Cores returns the total core count of the manifest's mesh.
func (m Manifest) Cores() int { return m.W * m.H }

// Validate checks that the node core sets partition the mesh.
func (m Manifest) Validate() error {
	if m.W <= 0 || m.H <= 0 {
		return fmt.Errorf("transport: bad mesh %dx%d", m.W, m.H)
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("transport: manifest has no nodes")
	}
	seen := make(map[geom.CoreID]int)
	for i, n := range m.Nodes {
		if n.Addr == "" {
			return fmt.Errorf("transport: node %d has no address", i)
		}
		for _, c := range n.Cores {
			if int(c) < 0 || int(c) >= m.Cores() {
				return fmt.Errorf("transport: node %d owns core %d outside %dx%d mesh", i, c, m.W, m.H)
			}
			if prev, dup := seen[c]; dup {
				return fmt.Errorf("transport: core %d owned by nodes %d and %d", c, prev, i)
			}
			seen[c] = i
		}
	}
	if len(seen) != m.Cores() {
		return fmt.Errorf("transport: %d of %d cores assigned to nodes", len(seen), m.Cores())
	}
	return nil
}

// routes returns the core→node index map. The manifest must be valid.
func (m Manifest) routes() []int {
	r := make([]int, m.Cores())
	for i, n := range m.Nodes {
		for _, c := range n.Cores {
			r[c] = i
		}
	}
	return r
}

// WriteFile stores the manifest as JSON.
func (m Manifest) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadManifest reads a JSON manifest and validates it.
func LoadManifest(path string) (Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("transport: %s: %v", path, err)
	}
	return m, m.Validate()
}

// LocalListeners builds a loopback manifest for an N-node cluster on a WxH
// mesh: cores are split into contiguous blocks and each node gets a free
// 127.0.0.1 port, allocated by listening on :0. The listeners are returned
// open, in node order, for ListenNodeOn to adopt — a port cannot be taken
// by another process between reservation and use. On error none is open.
func LocalListeners(nodes, w, h int) (Manifest, []net.Listener, error) {
	cores := w * h
	if nodes <= 0 || nodes > cores {
		return Manifest{}, nil, fmt.Errorf("transport: %d nodes for %d cores", nodes, cores)
	}
	m := Manifest{W: w, H: h, Nodes: make([]NodeSpec, nodes)}
	lns := make([]net.Listener, 0, nodes)
	for i := range m.Nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return Manifest{}, nil, err
		}
		lns = append(lns, ln)
		m.Nodes[i].Addr = ln.Addr().String()
		lo, hi := i*cores/nodes, (i+1)*cores/nodes
		for c := lo; c < hi; c++ {
			m.Nodes[i].Cores = append(m.Nodes[i].Cores, geom.CoreID(c))
		}
	}
	if err := m.Validate(); err != nil {
		closeAll(lns)
		return Manifest{}, nil, err
	}
	return m, lns, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// LocalManifest is LocalListeners with the ports released again, for nodes
// that bind by address (separate processes). Another process drawing
// ephemeral ports can take one before its node re-binds it; the node then
// fails to listen and says so.
func LocalManifest(nodes, w, h int) (Manifest, error) {
	m, lns, err := LocalListeners(nodes, w, h)
	closeAll(lns)
	return m, err
}

// LoadSpec is the coordinator's "load this machine" broadcast: machine
// configuration only. Every node builds its part over a pool of NumThreads
// empty thread slots; programs and memory arrive per job, in a JobSpec.
type LoadSpec struct {
	GuestContexts int
	Quantum       int
	Scheme        string // parsed by machine.ParseScheme on each node
	Placement     string // parsed by machine.ParsePlacement on each node
	LogEvents     bool
	NumThreads    int
}

// Heartbeat is a node's periodic liveness report: a sequence number that
// flows asynchronously on the coordinator link — liveness is observed, not
// inferred from connection death. Purely advisory: nothing deterministic
// may depend on it.
type Heartbeat struct {
	Node int
	Seq  uint64
}

// Reply is a node's answer to the coordinator's current request, the body
// of every FrameReply. Each node answers each request once — Collect with a
// run of replies, every one but the last with More set — so every request
// ends in the same barrier: one answer per node, or an error naming the
// node.
type Reply struct {
	// Node is stamped by the coordinator from the connection the reply
	// arrived on; a node cannot answer for another.
	Node int
	// Job echoes the job of the JobSubmit or JobDone answered; the
	// coordinator cross-checks it against the request.
	Job int
	Err string
	// Events are the retired job's event-log entries (JobDone) or one
	// core's shard events (Collect).
	Events []Event
	Sample *Sample // SampleReq
	// Collect streams one reply per owned core — its metrics row, its
	// shard's Events and memory words, More set — then a last reply
	// carrying the node's wire counters. Chunking bounds each control body
	// by one core's state instead of one node's, which is what keeps a
	// 256-core collection inside the wire's body cap. The coordinator
	// delivers the stream folded into one Reply per node.
	PerCore []CoreMetrics
	Mem     map[uint32]uint32
	More    bool
	Net     *NetStats
}

// JobSpec is one job, threads 0..len(Programs)-1 of the slot pool: their
// programs (in the ISA's 32-bit binary encoding) and initial registers,
// plus the job's initial memory image. It is broadcast to every node; each
// node installs the thread specs (replicated, like instruction memory) and
// preloads the addresses it homes.
type JobSpec struct {
	Job      int
	Programs [][]uint32       // Programs[t]: thread t's instructions, isa.Encode form
	Regs     []map[int]uint32 // initial register values per thread
	Mem      map[uint32]uint32
}

// JobDone retires the completed job on every node. A node runs one job at
// a time, so the retire names no slots and no region: every slot is
// cleared, so a stray late context fails loudly instead of executing a
// stale program, and every shard is emptied, its event-log entries
// returned in the node's Reply. That keeps an open-loop server's
// footprint at one job instead of growing O(jobs).
type JobDone struct {
	Job int
}

// ControlHandler answers the coordinator's requests on a node, called
// synchronously on the coordinator link's reader: injections that follow a
// JobSubmit on the same connection find the job installed, and each answer
// leaves before the next request is read. *machine.Part implements it.
type ControlHandler interface {
	// ApplyJob installs a job (JobSubmit).
	ApplyJob(*JobSpec) error
	// RetireJob retires the finished job (JobDone): it takes everything
	// the node holds — every slot, every shard's words, lease records and
	// events — and returns the events. It runs only between jobs, never
	// beside a live context. The slice may be the handler's own buffer,
	// valid until its next RetireJob.
	RetireJob(JobDone) []Event
	// Sample takes a non-destructive metrics snapshot (SampleReq).
	Sample() (Sample, error)
	// CollectChunked streams the post-run state (Collect) through emit:
	// one reply with More set per owned core, then a last one.
	CollectChunked(emit func(Reply) error) error
}

// HaltMsg reports a thread's HALT to the coordinator, carrying its final
// register file from whichever core it was resident on and the cost
// counters its context accumulated (machine cycles and interconnect
// messages under the §3 cost model).
type HaltMsg struct {
	Thread int
	Regs   [isa.NumRegs]uint32
	Cycles uint64
	Msgs   uint32
}

// CollectReply is one node's post-run state: its per-core counters, the
// event logs of its shards, its slice of the final memory image, and —
// when the part ran over TCP — the node's wire-level traffic counters.
// Counters, the rows' aggregate, is filled where a part collects itself
// (Part.Collect) and by the merge; over TCP it is re-derived from the rows
// rather than shipped.
type CollectReply struct {
	Node     int
	Counters map[string]int64
	PerCore  []CoreMetrics // owned cores, ascending
	Events   []Event
	Mem      map[uint32]uint32
	Net      *NetStats `json:",omitempty"` // nil for in-process parts
}

// Grow folds one increment of post-run state into r — a shard's events,
// its slice of the memory image and the metrics rows that go with them. It
// is the one accumulation step of every collect: a part reading its own
// shards, the coordinator reassembling a node's collect reply stream, and
// the merge of per-node replies into the machine-wide one.
func (r *CollectReply) Grow(events []Event, mem map[uint32]uint32, perCore ...CoreMetrics) {
	r.PerCore = append(r.PerCore, perCore...)
	r.Events = append(r.Events, events...)
	if r.Mem == nil {
		r.Mem = make(map[uint32]uint32)
	}
	//em2:unordered-ok: memory slices are address-disjoint (single-home invariant); merge order cannot matter
	for a, v := range mem {
		r.Mem[a] = v
	}
}

// --- wire protocol -------------------------------------------------------

const coordinatorID = -1

// errStopRead tells a connection reader to stop cleanly (orderly shutdown
// frame, duplicate connection) — not a protocol error.
var errStopRead = errors.New("transport: stop reading")

// callSlot is one issuing core's remote op, reused call after call (one op
// in flight per core, so the core's index is the request id). conn is the
// link the request left on. A reply and the link's teardown (failPending)
// race to swap it to nil; the winner stores the result, then the state, so
// each call settles once and a dying link fails exactly its own calls.
type callSlot struct {
	conn    atomic.Pointer[conn]
	settled atomic.Bool // rep and lost hold the result
	rep     MemReply
	lost    bool // the link died with the reply owed
}

// settle completes the call if it is still waiting on c.
func (s *callSlot) settle(c *conn, rep MemReply, lost bool) bool {
	if !s.conn.CompareAndSwap(c, nil) {
		return false
	}
	s.rep, s.lost = rep, lost
	s.settled.Store(true)
	return true
}

// conn is one batch-framed TCP connection (wire.go): coalescing writes
// through the shared batch buffer, buffered batch reads. Contexts ride as
// their fixed ContextWireBytes encoding, so what crosses the wire per
// migration is exactly the byte string a hardware transfer would ship.
type conn struct {
	c  net.Conn
	br *bufio.Reader
	w  batchWriter
	// reqs counts the peer's requests queued here, at most maxReqs, its
	// core count (0 on the coordinator link): one op in flight per core.
	reqs    atomic.Int32
	maxReqs int32
}

func newConn(c net.Conn, nc *netCounters) *conn {
	cn := &conn{c: c, br: bufio.NewReaderSize(c, 32<<10)}
	cn.w.init(c, nc)
	return cn
}

// sendReply ships r as a FrameReply, its body encoded straight into the
// batch buffer, flushing anything deferred ahead of it.
func (c *conn) sendReply(r Reply) error { return c.w.appendControl(FrameReply, r.AppendWire) }

// peerSlot holds a connection that may not exist yet; ready closes when it
// does, so senders can block until the mesh is wired up.
type peerSlot struct {
	once  sync.Once
	ready chan struct{}
	c     *conn
}

func newPeerSlot() *peerSlot { return &peerSlot{ready: make(chan struct{})} }

func (p *peerSlot) set(c *conn) bool {
	ok := false
	p.once.Do(func() { p.c = c; close(p.ready); ok = true })
	return ok
}

func (p *peerSlot) get(cancel <-chan struct{}) (*conn, error) {
	select {
	case <-p.ready:
		return p.c, nil
	case <-cancel:
		return nil, fmt.Errorf("transport: shut down while waiting for peer")
	}
}

// dialRetry dials addr until it succeeds, timeout passes (when positive)
// or stop closes — node and coordinator processes start in arbitrary
// order. Refused dials back off from 1 ms, doubling to a 20 ms cap, so a
// peer that is still binding costs a millisecond, not a tick.
func dialRetry(addr string, timeout time.Duration, stop <-chan struct{}) (net.Conn, error) {
	deadline := time.Now().Add(timeout) //em2:wallclock-ok: the retry deadline is about real connect attempts; never feeds results
	for wait := time.Millisecond; ; wait = min(2*wait, 20*time.Millisecond) {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err == nil {
			return c, nil
		}
		if timeout > 0 && time.Now().After(deadline) { //em2:wallclock-ok: the retry deadline is about real connect attempts; never feeds results
			return nil, fmt.Errorf("transport: dial %s: %v", addr, err)
		}
		select {
		case <-stop:
			return nil, err
		case <-time.After(wait): //em2:wallclock-ok: backoff between real connect attempts; never feeds results
		}
	}
}

// --- node endpoint -------------------------------------------------------

// Node is the TCP transport endpoint of one node process. It implements
// Transport for the cores its manifest entry owns and additionally carries
// the coordinator's control plane: requests in, replies and halts out.
//
// Lifecycle (see machine.ServeNode): ListenNode, receive the LoadSpec from
// Loads(), build the machine part (which installs the memory handler and
// calls Prepare), install the control handler, call Ready, answer the load
// with SendReply, serve the run, exit on ShutdownC.
type Node struct {
	man   Manifest
	idx   int
	ln    net.Listener
	route []int
	owned []geom.CoreID
	nc    netCounters

	peers []*peerSlot // by node index
	coord *peerSlot

	ready    chan struct{} // closed by Ready(): queue + handlers installed
	arrivals               // what the readers queue for the executor
	threads  int           // the slot pool's size (Prepare)
	handler  func(core geom.CoreID, req MemRequest) MemReply
	invH     func(inv LeaseInval)
	ctl      ControlHandler
	loaded   atomic.Bool // a LoadSpec was delivered; a node serves one
	hbOnce   sync.Once
	calls    []callSlot // by issuing core
	loads    chan *LoadSpec
	shutdown chan struct{}
	closed   atomic.Bool
	fault    atomic.Pointer[error] // first protocol error on an identified link
}

// ListenNode is ListenNodeOn over a fresh listener at the manifest address.
func ListenNode(man Manifest, idx int) (*Node, error) {
	if idx < 0 || idx >= len(man.Nodes) {
		return nil, fmt.Errorf("transport: node index %d of %d", idx, len(man.Nodes))
	}
	ln, err := net.Listen("tcp", man.Nodes[idx].Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: node %d listen: %v", idx, err)
	}
	return ListenNodeOn(man, idx, ln)
}

// ListenNodeOn starts the endpoint for man.Nodes[idx] on ln, an open
// listener at the manifest address that the node now owns (closed on error
// and by Close): it dials every lower-index peer (with retry, so start
// order does not matter), and accepts connections from higher-index peers
// and the coordinator in the background.
func ListenNodeOn(man Manifest, idx int, ln net.Listener) (*Node, error) {
	err := man.Validate()
	if err == nil && (idx < 0 || idx >= len(man.Nodes)) {
		err = fmt.Errorf("transport: node index %d of %d", idx, len(man.Nodes))
	}
	if err != nil {
		ln.Close()
		return nil, err
	}
	owned := append([]geom.CoreID(nil), man.Nodes[idx].Cores...)
	sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
	n := &Node{
		man:      man,
		idx:      idx,
		ln:       ln,
		route:    man.routes(),
		owned:    owned,
		peers:    make([]*peerSlot, len(man.Nodes)),
		coord:    newPeerSlot(),
		ready:    make(chan struct{}),
		calls:    make([]callSlot, man.Cores()),
		loads:    make(chan *LoadSpec, 1),
		shutdown: make(chan struct{}),
	}
	for i := range n.peers {
		n.peers[i] = newPeerSlot()
	}
	n.arrivals.init(0)
	go n.acceptLoop()
	for j := 0; j < idx; j++ {
		go n.dialPeer(j)
	}
	return n, nil
}

func (n *Node) acceptLoop() {
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		cc := newConn(c, &n.nc)
		// The first frame must be the hello identifying the dialer; it may
		// share its batch with data frames that follow it, which the same
		// reader then dispatches.
		go func() {
			identified := false
			fromCoordinator := false
			err := readBatches(cc.br, &n.nc, func(f Frame) error {
				if !identified {
					if f.Kind != FrameHello {
						return malformedf("first frame kind %d, want hello", f.Kind)
					}
					switch {
					case f.From == coordinatorID:
						if !n.coord.set(cc) {
							return errStopRead // duplicate coordinator connection
						}
						fromCoordinator = true
					case f.From >= 0 && int(f.From) < len(n.peers):
						if !n.peers[f.From].set(cc) {
							return errStopRead // duplicate peer connection
						}
						cc.maxReqs = int32(len(n.man.Nodes[f.From].Cores))
					default:
						return malformedf("hello from unknown peer %d", f.From)
					}
					identified = true
					return nil
				}
				return n.handleFrame(cc, f)
			})
			// A malformed stream from a stranger just drops the connection;
			// after identification it is protocol corruption on a live link.
			n.finishRead(cc, err, fromCoordinator, identified)
			c.Close()
		}()
	}
}

// finishRead implements the shared connection-teardown policy: corruption
// on an identified link fails the node loudly (a context or reply may be
// gone — better a visible death than a silent hang); a dropped coordinator
// connection releases the node; a peer closing at a batch boundary is
// normal teardown. Either way, Remote calls whose requests left on this
// connection can never be answered, so they are failed now rather than
// left to stall until the cluster timeout.
func (n *Node) finishRead(c *conn, err error, fromCoordinator, identified bool) {
	switch {
	case errors.Is(err, errStopRead):
		// Orderly: shutdown frame handled, or a duplicate connection.
	case errors.Is(err, ErrMalformedFrame):
		if identified {
			fmt.Fprintf(os.Stderr, "transport: node %d: %v\n", n.idx, err)
			n.fault.CompareAndSwap(nil, &err)
			n.triggerShutdown()
		}
	default: // io error: EOF or closed connection
		if fromCoordinator {
			// The coordinator dropping without a Shutdown frame means the
			// driver died: release the node rather than wedging forever.
			n.triggerShutdown()
		}
	}
	n.failPending(c)
}

// failPending fails every outstanding request that left on c and wakes
// the executor, whose waiting cores then fail their contexts.
func (n *Node) failPending(c *conn) {
	for i := range n.calls {
		if n.calls[i].settle(c, MemReply{}, true) {
			n.arrivals.signal()
		}
	}
}

// queueCtx decodes an inbound context into a queue slot, under the queue
// lock that orders it after the executor's last use of the slot.
func (n *Node) queueCtx(f Frame) error {
	t := int32(binary.BigEndian.Uint32(f.Ctx))
	if t < 0 || int(t) >= n.threads {
		return malformedf("context for core %d: thread %d outside the %d-slot pool", f.Dst, t, n.threads)
	}
	a := n.arrivals.next()
	a.Kind, a.Dst = f.Kind, f.Dst
	err := a.Ctx.DecodeWire(f.Ctx)
	if err != nil {
		// A context that does not decode is protocol corruption (version
		// skew, mangled frame): the thread it carried is gone.
		err = malformedf("context for core %d: %v", f.Dst, err)
	} else if a.Kind == FrameEviction {
		if e := checkEviction(f.Dst, a.Ctx); e != nil {
			err = malformedf("%v", e)
		}
	}
	n.arrivals.done(err == nil)
	return err
}

// handleFrame dispatches one inbound frame. Data-plane frames wait for
// Ready — the coordinator's Load always gets through first because it
// arrives on its own connection — and are queued for the executor, or,
// for a reply, settle the issuing core's call slot: the reader never
// writes a data frame and never blocks on the executor, which is what
// keeps every socket drained (DESIGN.md §6).
func (n *Node) handleFrame(c *conn, f Frame) error {
	switch f.Kind {
	case FrameLoad:
		spec := new(LoadSpec)
		if err := spec.DecodeWire(f.Blob); err != nil {
			return err
		}
		// A node serves one run: a second load is answered, not parked, so
		// the coordinator's barrier fails at once, naming this node.
		if n.loaded.Swap(true) {
			return c.sendReply(Reply{Err: "already loaded (a node serves one run)"})
		}
		n.loads <- spec
	case FrameMigration, FrameEviction:
		if !n.waitReady() {
			return errStopRead
		}
		if !n.Owns(f.Dst) {
			return malformedf("context for core %d, which node %d does not own", f.Dst, n.idx)
		}
		return n.queueCtx(f)
	case FrameMemReq:
		if !n.waitReady() {
			return errStopRead
		}
		if !n.Owns(f.Dst) {
			return malformedf("memory request for core %d, which node %d does not own", f.Dst, n.idx)
		}
		if c.reqs.Add(1) > c.maxReqs {
			return malformedf("more remote ops in flight than the peer has cores")
		}
		a := n.arrivals.next()
		a.Kind, a.Dst, a.Req, a.link, a.id = f.Kind, f.Dst, f.Req, c, f.ID
		n.arrivals.done(true)
	case FrameMemRep, FrameLeaseRep:
		if f.ID >= uint64(len(n.calls)) {
			return malformedf("reply to core %d outside the mesh", f.ID)
		}
		if n.calls[f.ID].settle(c, f.Rep, false) {
			n.arrivals.signal()
		}
	case FrameLeaseInval:
		if !n.waitReady() {
			return errStopRead
		}
		if !n.Owns(f.Inv.Dst) {
			return malformedf("lease update for core %d, which node %d does not own", f.Inv.Dst, n.idx)
		}
		a := n.arrivals.next()
		a.Kind, a.Dst, a.Inv = f.Kind, f.Inv.Dst, f.Inv
		n.arrivals.done(true)
	case FrameJobSubmit, FrameJobDone, FrameSampleReq, FrameCollect:
		if !n.waitReady() {
			return errStopRead
		}
		if n.ctl == nil {
			return malformedf("request kind %d to a node with no control handler", f.Kind)
		}
		return n.answer(c, f)
	case FrameShutdown:
		n.triggerShutdown()
		return errStopRead
	default:
		return malformedf("unexpected frame kind %d on a node link", f.Kind)
	}
	return nil
}

// answer serves one coordinator request through the control handler,
// synchronously on the coordinator link's reader, and sends its Reply back
// on that link: a JobSubmit's answer means the job is installed before any
// injection that follows it on the connection is read, and a JobDone's
// that the node is empty before the coordinator submits the next job.
func (n *Node) answer(c *conn, f Frame) error {
	var r Reply
	switch f.Kind {
	case FrameJobSubmit:
		spec := new(JobSpec)
		if err := spec.DecodeWire(f.Blob); err != nil {
			return err
		}
		r.Job = spec.Job
		if err := n.ctl.ApplyJob(spec); err != nil {
			r.Err = err.Error()
		}
	case FrameJobDone:
		var d JobDone
		if err := d.DecodeWire(f.Blob); err != nil {
			return err
		}
		// The events are the handler's buffer, valid until its next
		// RetireJob: sendReply below encodes them into the batch before
		// this reader can read, and so answer, the next JobDone.
		r = Reply{Job: d.Job, Events: n.ctl.RetireJob(d)}
	case FrameSampleReq:
		s, err := n.ctl.Sample()
		if err != nil {
			r.Err = err.Error()
		} else {
			s.Net = n.nc.snapshot()
			r.Sample = &s
		}
	case FrameCollect:
		// Wire counters are snapshotted before the stream so they do not
		// count its own traffic, then ride its last reply.
		net := n.nc.snapshot()
		return n.ctl.CollectChunked(func(r Reply) error {
			if !r.More {
				r.Net = &net
			}
			return c.sendReply(r)
		})
	}
	return c.sendReply(r)
}

// dialPeer connects to a lower-index peer, retrying until it answers or
// this endpoint is torn down — nodes may be started in any order, and how
// long "any order" stretches is the operator's business (the coordinator's
// run timeout bounds the overall wait).
func (n *Node) dialPeer(j int) {
	c, err := dialRetry(n.man.Nodes[j].Addr, 0, n.shutdown)
	if err != nil {
		return // shut down first
	}
	cc := newConn(c, &n.nc)
	if err := cc.w.appendFrame(Frame{Kind: FrameHello, From: int32(n.idx)}, true); err != nil {
		c.Close()
		return
	}
	if !n.peers[j].set(cc) {
		c.Close()
		return
	}
	cc.maxReqs = int32(len(n.man.Nodes[j].Cores))
	err = readBatches(cc.br, &n.nc, func(f Frame) error { return n.handleFrame(cc, f) })
	n.finishRead(cc, err, false, true)
	c.Close()
}

// triggerShutdown closes the shutdown channel once, releasing every
// blocked sender and ServeNode's control-plane waits.
func (n *Node) triggerShutdown() {
	if n.closed.CompareAndSwap(false, true) {
		close(n.shutdown)
	}
}

// Prepare sizes the node for a run of numThreads threads: inbound contexts
// must name a slot below it, and the queue starts with room for every
// thread. Call it before Ready.
func (n *Node) Prepare(numThreads int) {
	n.threads = numThreads
	n.arrivals.mu.Lock()
	n.arrivals.q = make([]Arrival, 0, numThreads)
	n.arrivals.mu.Unlock()
}

// Ready opens the data plane: inbound contexts, memory requests and lease
// updates held by the readers proceed to the queue. Call after Prepare and
// the Handle* installs.
func (n *Node) Ready() { close(n.ready) }

// waitReady blocks until the data plane opens, or reports false if the
// endpoint shut down first (a node that rejected its LoadSpec never calls
// Ready; its readLoops must not wedge forever).
func (n *Node) waitReady() bool {
	select {
	case <-n.ready:
		return true
	case <-n.shutdown:
		return false
	}
}

// Loads returns the channel delivering the coordinator's one LoadSpec.
func (n *Node) Loads() <-chan *LoadSpec { return n.loads }

// ShutdownC closes when the coordinator sends Shutdown.
func (n *Node) ShutdownC() <-chan struct{} { return n.shutdown }

// sendCoord ships one control frame to the coordinator, body (a control
// type's AppendWire) encoding it. Control frames flush immediately.
func (n *Node) sendCoord(kind FrameKind, body func([]byte) []byte) error {
	c, err := n.coord.get(n.shutdown)
	if err != nil {
		return err
	}
	return c.w.appendControl(kind, body)
}

// SendHalt reports a thread HALT to the coordinator; the thread's context
// is no longer resident.
func (n *Node) SendHalt(h HaltMsg) error {
	return n.sendCoord(FrameHalt, h.AppendWire)
}

// SendReply answers the LoadSpec, the one request the node's lifecycle
// answers itself (the control handler answers the rest): an empty Reply
// after the node's data plane is open, or one carrying the actual failure
// message — so the coordinator surfaces "bad scheme name" instead of a
// bare connection death.
func (n *Node) SendReply(r Reply) error { return n.sendCoord(FrameReply, r.AppendWire) }

// StartHeartbeat begins the node's liveness heartbeat toward the
// coordinator: every interval, a Heartbeat frame with an increasing Seq.
// The goroutine exits on
// shutdown or the first send error (a dead coordinator link needs no
// further liveness reports). Idempotent; interval must be positive.
func (n *Node) StartHeartbeat(interval time.Duration) {
	n.hbOnce.Do(func() {
		go func() {
			//em2:wallclock-ok: paces advisory liveness frames, which never enter deterministic surfaces
			tick := time.NewTicker(interval)
			defer tick.Stop()
			var seq uint64
			for {
				select {
				case <-n.shutdown:
					return
				case <-tick.C:
				}
				seq++
				if n.sendCoord(FrameHeartbeat, Heartbeat{Node: n.idx, Seq: seq}.AppendWire) != nil {
					return
				}
			}
		}()
	})
}

// NetStats snapshots the node's wire-level traffic counters, summed over
// every connection.
func (n *Node) NetStats() NetStats { return n.nc.snapshot() }

// Close tears the endpoint down, releasing any goroutine blocked on the
// shutdown channel (peer waits, in-flight Remote calls).
func (n *Node) Close() error {
	n.triggerShutdown()
	err := n.ln.Close()
	for _, p := range n.peers {
		select {
		case <-p.ready:
			p.c.c.Close()
		default:
		}
	}
	select {
	case <-n.coord.ready:
		n.coord.c.c.Close()
	default:
	}
	return err
}

// Cores implements Transport.
func (n *Node) Cores() int { return n.man.Cores() }

// Owned implements Transport.
func (n *Node) Owned() []geom.CoreID { return n.owned }

// Owns reports whether core is served by this endpoint.
func (n *Node) Owns(core geom.CoreID) bool {
	return int(core) >= 0 && int(core) < len(n.route) && n.route[core] == n.idx
}

// MigrationIn steps a node no machine part runs on, for a probe of the wire
// alone: a goroutine takes the queue, answers memory requests with the
// HandleMem handler at once, forwards the migrations for core (Sched
// copied) on the returned channel, and drops the rest. Call it once, after
// Ready.
func (n *Node) MigrationIn(core geom.CoreID) <-chan Context {
	out := make(chan Context, max(1, n.threads))
	go func() {
		var in []Arrival
		for {
			select {
			case <-n.arrivals.wake:
			case <-n.shutdown:
				return
			}
			in = n.Take(in)
			for i := range in {
				switch a := &in[i]; {
				case a.Kind == FrameMemReq:
					_ = n.Answer(a, n.handler(a.Dst, a.Req)) //em2:errsink-ok: a dead link fails the probe's own wait
				case a.Kind == FrameMigration && a.Dst == core:
					c := a.Ctx
					c.Sched = append([]byte(nil), c.Sched...)
					select {
					case out <- c:
					case <-n.shutdown:
						return
					}
				}
			}
			if n.Flush() != nil {
				return
			}
		}
	}()
	return out
}

// HandleMem implements Transport.
func (n *Node) HandleMem(h func(core geom.CoreID, req MemRequest) MemReply) { n.handler = h }

// HandleLeaseInval implements Transport. Install before Ready; inbound
// FrameLeaseInval waits for Ready and drops silently with no handler
// (write-updates are advisory — holders expire on their own clocks).
func (n *Node) HandleLeaseInval(h func(inv LeaseInval)) { n.invH = h }

// HandleControl installs the handler that answers the coordinator's
// requests. Install before Ready; requests wait for Ready, and one reaching
// a node with no handler is protocol corruption.
func (n *Node) HandleControl(h ControlHandler) { n.ctl = h }

// SendMigration implements Transport: a queued arrival when dst is owned
// locally, a deferred frame into the owning node's batch buffer otherwise —
// coalesced with every other ready message until Flush writes.
func (n *Node) SendMigration(dst geom.CoreID, c Context) error {
	return n.sendCtx(FrameMigration, dst, c)
}

// SendEviction implements Transport.
func (n *Node) SendEviction(dst geom.CoreID, c Context) error {
	return n.sendCtx(FrameEviction, dst, c)
}

func (n *Node) sendCtx(kind FrameKind, dst geom.CoreID, c Context) error {
	if n.Owns(dst) {
		n.arrivals.pushCtx(kind, dst, c)
		return nil
	}
	// The context encodes straight into the batch buffer and ships when
	// Flush writes. Sent or lost with the link, it has left this node.
	pc, err := n.peer(dst)
	if err != nil {
		return err
	}
	return pc.w.appendCtx(kind, dst, c)
}

// peer returns the link to the node that owns dst, waiting for it to be
// established.
func (n *Node) peer(dst geom.CoreID) (*conn, error) {
	return n.peers[n.route[dst]].get(n.shutdown)
}

// Flush implements Transport: every peer link that has frames is written,
// one write per link. Peers this endpoint never spoke to (or that have not
// connected yet) are skipped — Flush never blocks on an unestablished
// link.
func (n *Node) Flush() error {
	var first error
	for _, p := range n.peers {
		select {
		case <-p.ready:
			if err := p.c.w.flush(); err != nil && first == nil {
				first = err
			}
		default:
		}
	}
	return first
}

// Remote implements Transport. Its wait for another node's reply consumes
// the wake tokens, so it serves a node no executor steps (a probe, a
// test); the machine's executor polls instead.
func (n *Node) Remote(dst geom.CoreID, req MemRequest) (MemReply, error) {
	if n.Owns(dst) {
		return n.handler(dst, req), nil
	}
	if err := n.Request(dst, req); err != nil {
		return MemReply{}, err
	}
	if err := n.Flush(); err != nil {
		return MemReply{}, err
	}
	for {
		if rep, done, err := n.Poll(geom.CoreID(req.From)); done {
			return rep, err
		}
		select {
		case <-n.arrivals.wake:
		case <-n.shutdown:
			return MemReply{}, fmt.Errorf("transport: shut down awaiting reply from core %d", dst)
		}
	}
}

// Request implements Transport: the request frame joins the owning node's
// batch, and the reply settles req.From's call slot in that link's reader.
func (n *Node) Request(dst geom.CoreID, req MemRequest) error {
	if n.Owns(dst) || int(req.From) >= len(n.calls) {
		return fmt.Errorf("transport: remote op from core %d to core %d cannot leave node %d", req.From, dst, n.idx)
	}
	pc, err := n.peer(dst)
	if err != nil {
		return err
	}
	s := &n.calls[req.From]
	if s.settled.Load() || !s.conn.CompareAndSwap(nil, pc) {
		return fmt.Errorf("transport: core %d issued a remote op with one in flight", req.From)
	}
	if err := pc.w.appendFrame(Frame{Kind: FrameMemReq, Dst: dst, ID: uint64(req.From), Req: req}, false); err != nil {
		s.conn.CompareAndSwap(pc, nil)
		return err
	}
	return nil
}

// Poll implements Transport.
func (n *Node) Poll(core geom.CoreID) (MemReply, bool, error) {
	s := &n.calls[core]
	if !s.settled.Load() {
		return MemReply{}, false, nil
	}
	s.settled.Store(false)
	if s.lost {
		return MemReply{}, true, fmt.Errorf("transport: core %d's link died awaiting a remote reply", core)
	}
	return s.rep, true, nil
}

// Answer implements Transport: the reply (FrameLeaseRep when the home
// granted a lease) joins the batch of the link the request came on.
func (n *Node) Answer(a *Arrival, rep MemReply) error {
	a.link.reqs.Add(-1)
	f := Frame{Kind: FrameMemRep, ID: a.id, Rep: rep}
	if rep.Lease != 0 {
		f.Kind = FrameLeaseRep
	}
	return a.link.w.appendFrame(f, false)
}

// SendLeaseInval implements Transport: a direct handler call when the
// holder's core is owned locally, a frame into the owning node's batch
// otherwise. There is no reply — the update is advisory and the writer's
// shard op has already committed.
func (n *Node) SendLeaseInval(inv LeaseInval) error {
	if n.Owns(inv.Dst) {
		if n.invH != nil {
			n.invH(inv)
		}
		return nil
	}
	pc, err := n.peer(inv.Dst)
	if err != nil {
		return err
	}
	return pc.w.appendFrame(Frame{Kind: FrameLeaseInval, Inv: inv}, false)
}

// --- coordinator ---------------------------------------------------------

// Coordinator is the driver side of a cluster run: it owns no cores but
// connects to every node to broadcast the LoadSpec, submit jobs, inject
// their initial contexts, gather HALT reports, retire jobs, and collect
// the post-run state. Every request — load, job submit, job retire,
// sample, collect — is one request: a broadcast and one Reply per node.
type Coordinator struct {
	man     Manifest
	route   []int
	conns   []*conn
	nc      netCounters
	halts   atomic.Pointer[chan HaltMsg] // one slot per pool slot (Load)
	replies chan Reply
	deaths  chan error
	down    atomic.Bool // set by Shutdown/Close: reader exits become orderly

	// reqMu serializes requests, so the replies on hand always answer the
	// one in flight. failed is the error of the first failed request: its
	// unanswered replies may still arrive, so every later request refuses.
	// body (the request's encoded body) and timer (its deadline) are reused
	// request after request under the lock.
	reqMu  sync.Mutex
	failed error
	body   []byte
	timer  *time.Timer
	// retired is RetireJob's merge buffer, reused retire after retire.
	retired []Event

	hbMu sync.Mutex
	hb   []HeartbeatInfo // by node; Seq 0 until the node's first heartbeat
}

// HeartbeatInfo is the coordinator's last-seen liveness record for one
// node: the heartbeat's sequence number, stamped with the
// coordinator-side arrival time. Advisory only — it feeds timeout
// diagnostics, never results.
type HeartbeatInfo struct {
	Node int
	Seq  uint64
	At   time.Time
}

// DialCluster connects to every node in the manifest, retrying until
// timeout so the node processes may still be starting.
func DialCluster(man Manifest, timeout time.Duration) (*Coordinator, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	co := &Coordinator{
		man:     man,
		route:   man.routes(),
		conns:   make([]*conn, len(man.Nodes)),
		replies: make(chan Reply, len(man.Nodes)),
		deaths:  make(chan error, len(man.Nodes)),
		timer:   time.NewTimer(time.Hour),
		hb:      make([]HeartbeatInfo, len(man.Nodes)),
	}
	co.timer.Stop()
	co.halts.Store(new(chan HaltMsg)) // no pool before Load: every halt is malformed
	for i, ns := range man.Nodes {
		c, err := dialRetry(ns.Addr, timeout, nil)
		if err != nil {
			co.Close()
			return nil, err
		}
		cc := newConn(c, &co.nc)
		if err := cc.w.appendFrame(Frame{Kind: FrameHello, From: coordinatorID}, true); err != nil {
			co.Close()
			return nil, err
		}
		co.conns[i] = cc
		go co.readLoop(i, cc)
	}
	return co, nil
}

func (co *Coordinator) readLoop(node int, c *conn) {
	// acc folds this node's collect stream into one reply. A node's replies
	// arrive only on its own connection, so the accumulator is local to
	// this reader — no lock, no cross-node interleaving.
	var acc CollectReply
	folding := false
	// One decode target per frame kind, overwritten by each decode: the
	// halt collector and the barrier receive copies, so nothing aliases.
	var h HaltMsg
	var r Reply
	var hb Heartbeat
	err := readBatches(c.br, &co.nc, func(f Frame) error {
		switch f.Kind {
		case FrameHalt:
			if err := h.DecodeWire(f.Blob); err != nil {
				return err
			}
			// A node reports each slot's halt once per job, and the
			// driver drains the queue, one slot per pool slot, for the
			// whole job: a halt that does not fit is a protocol violation,
			// and this reader never blocks.
			q := *co.halts.Load()
			select {
			case q <- h:
			default:
				return malformedf("node %d reported more halts than the %d-slot pool holds", node, cap(q))
			}
		case FrameReply:
			if err := r.DecodeWire(f.Blob); err != nil {
				return err
			}
			r.Node = node
			if r.More || folding {
				acc.Grow(r.Events, r.Mem, r.PerCore...)
				if folding = r.More; folding {
					return nil
				}
				r.PerCore, r.Events, r.Mem, acc = acc.PerCore, acc.Events, acc.Mem, CollectReply{}
			}
			// Each node answers the one request in flight once, so the
			// channel, one slot per node, is never full.
			select {
			case co.replies <- r:
			default:
				return malformedf("node %d answered a request twice", node)
			}
		case FrameHeartbeat:
			if err := hb.DecodeWire(f.Blob); err != nil {
				return err
			}
			co.hbMu.Lock()
			//em2:wallclock-ok: the arrival stamp only dates the heartbeat in a timeout error
			co.hb[node] = HeartbeatInfo{Node: node, Seq: hb.Seq, At: time.Now()}
			co.hbMu.Unlock()
		default:
			return malformedf("unexpected frame kind %d on the coordinator link", f.Kind)
		}
		return nil
	})
	// Corruption fails loudly either way. Any reader exit before the
	// coordinator itself initiated shutdown — EOF from a dying node process,
	// a cut connection, a malformed stream — is a node death: report it on
	// Deaths so the driver can fail the run immediately instead of
	// discovering the loss as a timeout (or, worse, miscounting garbage
	// halts toward completion).
	if errors.Is(err, ErrMalformedFrame) {
		fmt.Fprintf(os.Stderr, "transport: coordinator: %v\n", err)
	}
	if !co.down.Load() {
		select {
		case co.deaths <- fmt.Errorf("transport: connection to node %d lost: %w", node, err):
		default:
		}
	}
}

// broadcast sends one control frame to every node: body (a control type's
// AppendWire) encoded once into the reused co.body and those bytes
// appended to each link, or the bare kind byte when body is nil. The
// caller holds reqMu.
func (co *Coordinator) broadcast(kind FrameKind, body func([]byte) []byte) error {
	var blob []byte
	if body != nil {
		co.body = body(co.body[:0])
		blob = co.body
	}
	for _, c := range co.conns {
		if err := c.w.appendFrame(Frame{Kind: kind, Blob: blob}, true); err != nil {
			return err
		}
	}
	return nil
}

// gather is the coordinator's one barrier: it takes one Reply per node
// from replies, handing each to check, and fails on the first check error,
// on a second reply from one node, on a node death, or when expired
// fires. A dying node's last reply can be queued ahead of its death (a
// node that fails to load sends the reply carrying its error, then exits;
// one reader delivers both, in that order), so queued replies are checked
// before a death is reported: the reply that explains a death beats the
// death.
func gather(what string, nodes int, replies <-chan Reply, deaths <-chan error, expired <-chan time.Time, check func(Reply) error) error {
	var small [64]bool // no allocation for up to 64 nodes
	seen := small[:]
	if nodes > len(small) {
		seen = make([]bool, nodes)
	}
	take := func(r Reply) error {
		if seen[r.Node] {
			return fmt.Errorf("transport: %s: second reply from node %d", what, r.Node)
		}
		seen[r.Node] = true
		return check(r)
	}
	for got := 0; got < nodes; got++ {
		select {
		case r := <-replies:
			if err := take(r); err != nil {
				return err
			}
		case death := <-deaths:
			for len(replies) > 0 {
				if err := take(<-replies); err != nil {
					return err
				}
			}
			return death
		case <-expired:
			return fmt.Errorf("transport: %s: %d of %d nodes replied before timeout", what, got, nodes)
		}
	}
	return nil
}

// request is the coordinator's one control exchange: broadcast the
// request, then gather one Reply per node. A reply carrying an error, or
// answering another job than job, fails the request naming the node; each
// gets every other reply. A failed request may leave replies in flight, so
// every later request fails too — serve.Run, ClusterRun.Run and
// LoadCluster abandon the coordinator on any barrier error anyway.
func (co *Coordinator) request(what string, kind FrameKind, body func([]byte) []byte, job int, timeout time.Duration, each func(Reply) error) error {
	co.reqMu.Lock()
	defer co.reqMu.Unlock()
	if co.failed != nil {
		return fmt.Errorf("transport: %s refused after a failed request: %w", what, co.failed)
	}
	err := co.broadcast(kind, body)
	if err == nil {
		co.timer.Reset(timeout)
		defer co.timer.Stop()
		err = gather(what, len(co.conns), co.replies, co.deaths, co.timer.C, func(r Reply) error {
			if r.Job != job {
				return fmt.Errorf("transport: %s: node %d answered job %d, want %d", what, r.Node, r.Job, job)
			}
			if r.Err != "" {
				return fmt.Errorf("transport: %s: node %d failed: %s", what, r.Node, r.Err)
			}
			if each != nil {
				return each(r)
			}
			return nil
		})
	}
	co.failed = err
	return err
}

// Load broadcasts the run description to every node and awaits every
// node's answer: the barrier that turns a node's load failure into its
// actual error message ("unknown scheme …") instead of a bare connection
// death, and after which every node's data plane is open. It sizes the
// halt queue by the pool: a job's threads halt once each, so one slot per
// pool slot holds every halt a job reports (readLoop).
func (co *Coordinator) Load(spec *LoadSpec, timeout time.Duration) error {
	q := make(chan HaltMsg, spec.NumThreads)
	co.halts.Store(&q)
	return co.request("load", FrameLoad, spec.AppendWire, 0, timeout, nil)
}

// Heartbeats snapshots the last heartbeat seen from each node, sorted by
// node index. Nodes that have not yet heartbeated are absent. Advisory:
// use it to annotate timeouts, never to compute results.
func (co *Coordinator) Heartbeats() []HeartbeatInfo {
	co.hbMu.Lock()
	defer co.hbMu.Unlock()
	var infos []HeartbeatInfo
	for _, hi := range co.hb {
		if hi.Seq > 0 {
			infos = append(infos, hi)
		}
	}
	return infos
}

// HeartbeatSummary renders the last-seen heartbeats for a timeout
// diagnostic: which nodes were still alive, and how stale each one's last
// report was. Advisory only — it annotates errors, never results.
func (co *Coordinator) HeartbeatSummary() string {
	parts := make([]string, len(co.conns))
	for i := range parts {
		parts[i] = fmt.Sprintf("node %d silent", i)
	}
	for _, hi := range co.Heartbeats() {
		//em2:wallclock-ok: timeout diagnostics annotate real elapsed time; never feeds results
		parts[hi.Node] = fmt.Sprintf("node %d seq %d %.1fs ago", hi.Node, hi.Seq, time.Since(hi.At).Seconds())
	}
	return "last heartbeats: " + strings.Join(parts, ", ")
}

// InjectEviction places an initial context: like the in-process machine,
// injection uses the eviction network of the thread's native core, whose
// arrival is always accepted. Injections are deferred into the owning
// node's batch buffer — call Flush after the last one, and a whole run's
// initial contexts reach each node in a single write.
func (co *Coordinator) InjectEviction(dst geom.CoreID, c Context) error {
	return co.conns[co.route[dst]].w.appendCtx(FrameEviction, dst, c)
}

// Flush ships every deferred injection, one batch per node connection.
func (co *Coordinator) Flush() error {
	var first error
	for _, c := range co.conns {
		if c == nil {
			continue
		}
		if err := c.w.flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NetStats snapshots the coordinator's wire-level traffic counters.
func (co *Coordinator) NetStats() NetStats { return co.nc.snapshot() }

// Halts delivers HALT reports as threads finish; nil before Load.
func (co *Coordinator) Halts() <-chan HaltMsg { return *co.halts.Load() }

// Deaths delivers one error per node connection that failed before the
// coordinator initiated shutdown — a node process dying mid-run. A driver
// awaiting halts should select on it and fail the run loudly.
func (co *Coordinator) Deaths() <-chan error { return co.deaths }

// SubmitJob broadcasts one job's specs to every node and waits for every
// answer — the barrier that keeps a cross-node migration from reaching a
// node before that node installed the job's thread specs. Inject the job's
// contexts only after SubmitJob returns nil.
func (co *Coordinator) SubmitJob(spec *JobSpec, timeout time.Duration) error {
	return co.request("job submit", FrameJobSubmit, spec.AppendWire, spec.Job, timeout, nil)
}

// RetireJob broadcasts a JobDone and waits for every answer — the barrier
// that keeps the coordinator from submitting the next job before every
// node emptied itself. It returns the job's event-log entries, drained
// from every node's shards (merge order is irrelevant because SC checking
// orders events by home and sequence), in a buffer the coordinator
// reuses: the slice is valid until the next RetireJob.
func (co *Coordinator) RetireJob(d JobDone, timeout time.Duration) ([]Event, error) {
	events := co.retired[:0]
	err := co.request("job retire", FrameJobDone, d.AppendWire, d.Job, timeout, func(r Reply) error {
		events = append(events, r.Events...)
		return nil
	})
	co.retired = events
	if err != nil {
		return nil, err
	}
	return events, nil
}

// sampleTimeout bounds one cluster-wide sample gather.
const sampleTimeout = 30 * time.Second

// Sample implements MetricsSource for the whole cluster: it requests one
// Sample per node and merges them into a cluster-wide Sample — per-core
// rows sorted ascending by core, gauges summed, wire counters summed across
// the nodes plus the coordinator's own. Non-destructive and safe to call
// repeatedly while a run is live: the nodes answer on their reader
// goroutines without touching the data plane.
func (co *Coordinator) Sample() (Sample, error) {
	var merged Sample
	err := co.request("sample", FrameSampleReq, nil, 0, sampleTimeout, func(r Reply) error {
		if r.Sample == nil {
			return fmt.Errorf("transport: sample: node %d answered with no sample", r.Node)
		}
		if len(r.Sample.Guests) != len(r.Sample.PerCore) {
			return fmt.Errorf("transport: sample: node %d sent %d guest gauges for %d cores",
				r.Node, len(r.Sample.Guests), len(r.Sample.PerCore))
		}
		merged.Merge(*r.Sample)
		return nil
	})
	if err != nil {
		return Sample{}, err
	}
	// Replies merge in arrival order; re-sort by core, carrying the aligned
	// guest gauge along with its row (each reply was checked to carry one
	// per row).
	order := make([]int, len(merged.PerCore))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return merged.PerCore[order[i]].Core < merged.PerCore[order[j]].Core })
	perCore := make([]CoreMetrics, len(order))
	guests := make([]int64, len(order))
	for i, o := range order {
		perCore[i], guests[i] = merged.PerCore[o], merged.Guests[o]
	}
	merged.PerCore, merged.Guests = perCore, guests
	merged.Net = merged.Net.Add(co.nc.snapshot())
	return merged, nil
}

// Collect requests every node's post-run state and returns one reply per
// node, ascending by node index.
func (co *Coordinator) Collect(timeout time.Duration) ([]CollectReply, error) {
	reps := make([]CollectReply, len(co.conns))
	err := co.request("collect", FrameCollect, nil, 0, timeout, func(r Reply) error {
		reps[r.Node] = CollectReply{Node: r.Node, PerCore: r.PerCore, Events: r.Events, Mem: r.Mem, Net: r.Net}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reps, nil
}

// Shutdown tells every node to exit. Connection teardowns that follow are
// orderly: they no longer count as node deaths.
func (co *Coordinator) Shutdown() {
	co.down.Store(true)
	for _, c := range co.conns {
		if c != nil {
			c.w.appendFrame(Frame{Kind: FrameShutdown}, true)
		}
	}
}

// Close drops the coordinator's connections.
func (co *Coordinator) Close() {
	co.down.Store(true)
	for _, c := range co.conns {
		if c != nil {
			c.c.Close()
		}
	}
}
