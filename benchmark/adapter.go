package main

// adapter.go is the benchmark's whole contact surface with the runtime:
// every import of repro/internal/... and every call into those packages is
// in this file, and each tracing decorator embeds the interface (or type)
// it wraps, so an API move or an added interface method is a one-file fix.
// The rest of the package sees plain Go values: counters, digests,
// durations.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
	"repro/internal/wprog"
)

const runTimeout = 60 * time.Second

// counters is one op's machine counter set. Every field is independent of
// the schedule on the benchmark's workloads (no guest limits, so no
// evictions), which is what lets each op be compared with the first.
type counters struct {
	Instructions, LocalOps, RemoteReads, RemoteWrites int64
	Migrations, Evictions, ContextFlits               int64
	LeaseHits, LeaseMisses, LeaseInvals, Overcommits  int64
}

func countersOf(get func(string) int64) counters {
	return counters{
		Instructions: get("instructions"), LocalOps: get("local_ops"),
		RemoteReads: get("remote_reads"), RemoteWrites: get("remote_writes"),
		Migrations: get("migrations"), Evictions: get("evictions"), ContextFlits: get("context_flits"),
		LeaseHits: get("lease_hits"), LeaseMisses: get("lease_misses"),
		LeaseInvals: get("lease_invals"), Overcommits: get("overcommits"),
	}
}

func resultCounters(r *machine.Result) counters {
	return counters{
		Instructions: r.Instructions, LocalOps: r.LocalOps,
		RemoteReads: r.RemoteReads, RemoteWrites: r.RemoteWrites,
		Migrations: r.Migrations, Evictions: r.Evictions, ContextFlits: r.ContextFlits,
		LeaseHits: r.LeaseHits, LeaseMisses: r.LeaseMisses,
		LeaseInvals: r.LeaseInvals, Overcommits: r.Overcommits,
	}
}

// result is the inverse of resultCounters, for the runs that collect
// counters themselves and still want wprog.RuntimeCounts.
func (c counters) result() *machine.Result {
	return &machine.Result{
		Instructions: c.Instructions, LocalOps: c.LocalOps,
		RemoteReads: c.RemoteReads, RemoteWrites: c.RemoteWrites,
		Migrations: c.Migrations, Evictions: c.Evictions, ContextFlits: c.ContextFlits,
		LeaseHits: c.LeaseHits, LeaseMisses: c.LeaseMisses,
		LeaseInvals: c.LeaseInvals, Overcommits: c.Overcommits,
	}
}

func (c counters) memOps() int64    { return c.LocalOps + c.remoteOps() + c.LeaseHits }
func (c counters) remoteOps() int64 { return c.RemoteReads + c.RemoteWrites }

// simMsgs is the modelled interconnect message count: one per context
// shipped, two (request and reply) per remote operation.
func (c counters) simMsgs() int64 { return c.Migrations + c.Evictions + 2*c.remoteOps() }

// simFlits is the modelled interconnect traffic, the paper's traffic
// metric: the flits of every shipped context (the runtime's own counter)
// plus each remote operation's request and reply frames at their wire
// sizes, on the link the machine itself charges (noc.DefaultConfig).
func (c counters) simFlits() int64 {
	link := noc.DefaultConfig()
	flits := func(bytes int) int64 { return int64(link.Flits(8 * bytes)) }
	plain := c.remoteOps() - c.LeaseMisses // a lease-granting reply is the larger frame
	return c.ContextFlits + c.remoteOps()*flits(transport.MemReqFrameBytes) +
		plain*flits(transport.MemRepFrameBytes) + c.LeaseMisses*flits(transport.LeaseRepFrameBytes)
}

// wireStats is the TCP plane's traffic for one op: what the two nodes and
// the coordinator wrote.
type wireStats struct {
	NodeMsgs, NodeBatches, NodeBytes int64
	CoordMsgs, CoordBatches          int64
}

// outcome is what one batch op produced.
type outcome struct {
	ctr    counters
	digest uint64 // counters, final registers and the sampled memory words
	cycles uint64 // slowest thread's halt cycle; only runs driven over machine.NewPart see it
	wire   wireStats
}

// fnv64 is FNV-1a over 32- and 64-bit words.
type fnv64 uint64

const fnvOffset fnv64 = 14695981039346656037

func (h *fnv64) u32(v uint32) {
	for i := 0; i < 4; i++ {
		*h = (*h ^ fnv64(byte(v>>(8*i)))) * 1099511628211
	}
}

func (h *fnv64) u64(v uint64) { h.u32(uint32(v)); h.u32(uint32(v >> 32)) }

func (h *fnv64) bytes(b []byte) {
	for _, c := range b {
		*h = (*h ^ fnv64(c)) * 1099511628211
	}
}

func digest(ctr counters, regs [][isa.NumRegs]uint32, read func(uint32) uint32, sample []uint32) uint64 {
	h := fnvOffset
	for _, v := range []int64{ctr.Instructions, ctr.LocalOps, ctr.RemoteReads, ctr.RemoteWrites,
		ctr.Migrations, ctr.Evictions, ctr.ContextFlits, ctr.LeaseHits, ctr.LeaseMisses,
		ctr.LeaseInvals, ctr.Overcommits} {
		h.u64(uint64(v))
	}
	for t := range regs {
		for _, v := range regs[t] {
			h.u32(v)
		}
	}
	for _, a := range sample {
		h.u32(a)
		h.u32(read(a))
	}
	return uint64(h)
}

// maxSampleWords bounds the memory words each op's digest reads back. The
// hop kernels' whole image fits; ocean's 24 770 words are sampled evenly
// per op (copying the image would cost a tenth of the op) and digested in
// full once per set-up, by the oracle pass.
const maxSampleWords = 512

// batchProgram is one batch workload's generated input and expectations.
type batchProgram struct {
	w, h      int
	scheme    string
	placement string
	lit       machine.Litmus
	model     *wprog.Counts // ocean: the trace model's prediction

	compileMs, predictMs float64

	// Filled by oracle; pinned says want is complete.
	sample      []uint32
	imageDigest uint64
	want        outcome
	pinned      bool
}

const batchQuantum = 16

func (p *batchProgram) mesh() geom.Mesh { return geom.NewMesh(p.w, p.h) }

func (p *batchProgram) config() (machine.Config, error) {
	mesh := p.mesh()
	cfg := machine.Config{Mesh: mesh, Quantum: batchQuantum}
	var err error
	if cfg.Placement, err = machine.ParsePlacement(p.placement, mesh.Cores()); err != nil {
		return cfg, err
	}
	cfg.Scheme, err = machine.ParseScheme(p.scheme, mesh)
	return cfg, err
}

// newOcean compiles the paper's flagship workload at paper scale: 64
// threads on 8x8. The ocean generator is a fixed grid sweep and ignores
// the seed; it is passed through so the input is still a function of it.
func newOcean(seed int64) (*batchProgram, error) {
	p := &batchProgram{w: 8, h: 8, scheme: "history:2", placement: "page-striped:4096"}
	t0 := time.Now()
	c, err := wprog.CompileWorkload("ocean", workload.Config{Threads: 64, Scale: 128, Iters: 1, Seed: uint64(seed)}, p.w*p.h)
	if err != nil {
		return nil, err
	}
	p.compileMs = msSince(t0)
	p.lit = c.Litmus()
	cfg, err := p.config()
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	pred, err := c.Predict(cfg.Mesh, cfg.Scheme, cfg.Placement, 0)
	if err != nil {
		return nil, err
	}
	p.predictMs = msSince(t0)
	m := wprog.ModelCounts(pred, cfg.Scheme)
	p.model = &m
	return p, nil
}

// newHop assembles the generated hop kernel (gen.go) for the given scheme.
func newHop(seed int64, scheme string) (*batchProgram, error) {
	src, regs := hopKernel(seed)
	prog, err := isa.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("hop kernel: %w", err)
	}
	p := &batchProgram{w: 4, h: 4, scheme: scheme, placement: fmt.Sprintf("page-striped:%d", hopPage)}
	p.lit = machine.Litmus{Name: "hop", Threads: make([]machine.ThreadSpec, hopThreads), Deterministic: true}
	for t := range p.lit.Threads {
		p.lit.Threads[t] = machine.ThreadSpec{Program: prog, Regs: regs(t)}
	}
	p.lit.Check = func(_ func(uint32) uint32, final [][isa.NumRegs]uint32) error {
		for t := range final {
			if final[t][6] != 0 || final[t][7] != 0 {
				return fmt.Errorf("hop: thread %d halted with loop counter %d and scratch %d, want 0 and 0", t, final[t][6], final[t][7])
			}
		}
		return nil
	}
	return p, nil
}

// verify applies the checks every op gets: the litmus outcome, the trace
// model's counts where there is a model, and equality with the oracle
// pass once there is one.
func (p *batchProgram) verify(o outcome, read func(uint32) uint32, regs [][isa.NumRegs]uint32, res *machine.Result) error {
	if p.lit.Check != nil {
		if err := p.lit.Check(read, regs); err != nil {
			return err
		}
	}
	if p.model != nil {
		if d := p.model.Diff(wprog.RuntimeCounts(res)); len(d) > 0 {
			return fmt.Errorf("runtime counts differ from the trace model: %v", d)
		}
	}
	if !p.pinned {
		return nil
	}
	if o.ctr != p.want.ctr {
		return fmt.Errorf("counters %+v differ from the first op's %+v", o.ctr, p.want.ctr)
	}
	if o.digest != p.want.digest {
		return fmt.Errorf("digest %016x differs from the first op's %016x", o.digest, p.want.digest)
	}
	return nil
}

// runChan is one channel op as a user runs it: New, Preload, Run, check.
func (p *batchProgram) runChan() (outcome, error) {
	cfg, err := p.config()
	if err != nil {
		return outcome{}, err
	}
	m, err := machine.New(cfg, len(p.lit.Threads))
	if err != nil {
		return outcome{}, err
	}
	for a, v := range p.lit.Mem {
		m.Preload(a, v, 0)
	}
	res, err := m.Run(p.lit.Threads)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{ctr: resultCounters(res)}
	o.digest = digest(o.ctr, res.FinalRegs, m.Read, p.sample)
	return o, p.verify(o, m.Read, res.FinalRegs, res)
}

// runPart is the same op driven over machine.NewPart by hand, which is the
// only way to see halt cycles, the whole memory image, and — with a
// recorder — the layer boundaries. The set-up oracle pass calls it with
// rec nil; the traced pass with a recorder and decorators installed.
func (p *batchProgram) runPart(rec *recorder, capture *transport.Context) (outcome, map[uint32]uint32, error) {
	opStart := rec.enterIf(spOp)
	cfg, err := p.config()
	if err != nil {
		return outcome{}, nil, err
	}
	n := len(p.lit.Threads)
	local := transport.NewLocal(cfg.Mesh.Cores(), n)
	var tr transport.Transport = local
	if rec != nil {
		tr = &tracedLocal{Local: local, rec: rec, capture: capture}
		cfg.Placement = tracedPolicy{Policy: cfg.Placement, rec: rec}
		cfg.Scheme = traceScheme(cfg.Scheme, rec)
	}
	t := rec.enterIf(spNew)
	part, err := machine.NewPart(cfg, tr)
	rec.leaveIf(spNew, t)
	if err != nil {
		return outcome{}, nil, err
	}
	t = rec.enterIf(spPreload)
	for a, v := range p.lit.Mem {
		part.Preload(a, v, 0)
	}
	rec.leaveIf(spPreload, t)

	halts := make(chan transport.HaltMsg, n)
	t = rec.enterIf(spStart)
	err = part.Start(p.lit.Threads, func(h transport.HaltMsg) { halts <- h })
	rec.leaveIf(spStart, t)
	if err != nil {
		return outcome{}, nil, err
	}
	t = rec.enterIf(spRun)
	cores := cfg.Mesh.Cores()
	for th := range p.lit.Threads {
		ctx := transport.Context{Thread: int32(th), Native: int32(th % cores)}
		for r, v := range p.lit.Threads[th].Regs {
			ctx.Arch.Regs[r] = v
		}
		if err := local.SendEviction(geom.CoreID(th%cores), ctx); err != nil {
			part.Stop()
			return outcome{}, nil, err
		}
	}
	regs := make([][isa.NumRegs]uint32, n)
	var o outcome
	for range p.lit.Threads {
		h := <-halts
		regs[h.Thread] = h.Regs
		o.cycles = max(o.cycles, h.Cycles)
	}
	rec.leaveIf(spRun, t)
	t = rec.enterIf(spStop)
	part.Stop()
	rec.leaveIf(spStop, t)
	t = rec.enterIf(spCollect)
	coll := part.Collect(0)
	rec.leaveIf(spCollect, t)

	t = rec.enterIf(spCheck)
	read := func(a uint32) uint32 { return coll.Mem[a] }
	o.ctr = countersOf(func(k string) int64 { return coll.Counters[k] })
	o.digest = digest(o.ctr, regs, read, p.sample)
	err = p.verify(o, read, regs, o.ctr.result())
	rec.leaveIf(spCheck, t)
	rec.leaveIf(spOp, opStart)
	return o, coll.Mem, err
}

// oracle runs the program once over machine.NewPart, records the halt
// cycle and the digests every later op must reproduce, and chooses the
// memory words the per-op digest samples.
func (p *batchProgram) oracle() error {
	p.sample, p.pinned = nil, false
	first, mem, err := p.runPart(nil, nil)
	if err != nil {
		return err
	}
	addrs := make([]uint32, 0, len(mem))
	for a := range mem {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	h := fnvOffset
	for _, a := range addrs {
		h.u32(a)
		h.u32(mem[a])
	}
	p.imageDigest = uint64(h)
	step := max(1, (len(addrs)+maxSampleWords-1)/maxSampleWords)
	sample := make([]uint32, 0, maxSampleWords)
	for i := 0; i < len(addrs); i += step {
		sample = append(sample, addrs[i])
	}
	// One more pass so the expected digest covers the sampled words.
	p.sample = sample
	second, _, err := p.runPart(nil, nil)
	if err != nil {
		return err
	}
	if second.ctr != first.ctr || second.cycles != first.cycles {
		return fmt.Errorf("oracle: two runs disagree: %+v/%d vs %+v/%d", first.ctr, first.cycles, second.ctr, second.cycles)
	}
	p.want, p.pinned = second, true
	return nil
}

// The benchmark's loopback clusters listen on ports below the kernel's
// ephemeral range (32768 and up by default). transport.LocalManifest
// reserves an ephemeral port by listening and closing; until the node
// listens again, any outgoing connection — the coordinator's own dial to
// the other node, say — can be handed that port as its source port, and the
// run dies (ROADMAP 1(a)). That happened to about one op in 2 500 here,
// which over the driver's few thousand bring-ups is a failed run. Ports no
// connection can be assigned close the window without touching transport.
const (
	portBase = 20000
	portSpan = 8000
)

// nextPort rotates through the span, starting where the process id puts
// it, so back-to-back processes and back-to-back ops do not reuse a port
// while its old connections sit in TIME_WAIT.
var nextPort atomic.Uint32

func init() { nextPort.Store(uint32(os.Getpid()) * 64) }

// loopbackManifest is transport.LocalManifest with each node moved to a
// free port of the benchmark's own range.
func loopbackManifest(nodes, w, h int) (transport.Manifest, error) {
	man, err := transport.LocalManifest(nodes, w, h)
	if err != nil {
		return man, err
	}
	for i := range man.Nodes {
		addr := ""
		for try := 0; try < portSpan && addr == ""; try++ {
			a := fmt.Sprintf("127.0.0.1:%d", portBase+int(nextPort.Add(1)%portSpan))
			if ln, err := net.Listen("tcp", a); err == nil {
				ln.Close()
				addr = a
			}
		}
		if addr == "" {
			return man, fmt.Errorf("no free loopback port in [%d, %d)", portBase, portBase+portSpan)
		}
		man.Nodes[i].Addr = addr
	}
	return man, man.Validate()
}

// hostCluster starts the two loopback nodes of a fresh manifest inside
// this process and returns the manifest and a join function that waits for
// both to exit.
func hostCluster(w, h int, rec *recorder) (transport.Manifest, func() error, error) {
	t := rec.enterIf(spManifest)
	man, err := loopbackManifest(clusterNodes, w, h)
	rec.leaveIf(spManifest, t)
	if err != nil {
		return man, nil, err
	}
	errs := make(chan error, len(man.Nodes))
	for i := range man.Nodes {
		go func() { errs <- machine.ServeNode(man, i) }()
	}
	join := func() error {
		var first error
		for range man.Nodes {
			if err := <-errs; err != nil && first == nil {
				first = fmt.Errorf("node: %w", err)
			}
		}
		return first
	}
	return man, join, nil
}

const clusterNodes = 2

// runTCP is one TCP op: a fresh 2-node loopback cluster, one ClusterRun,
// join, check — the bring-up a user of `em2sim -cluster` pays each time.
func (p *batchProgram) runTCP(rec *recorder) (outcome, error) {
	opStart := rec.enterIf(spOp)
	man, join, err := hostCluster(p.w, p.h, rec)
	if err != nil {
		return outcome{}, err
	}
	t := rec.enterIf(spClusterRun)
	res, err := machine.ClusterRun{
		Manifest: man,
		Config: machine.ClusterConfig{
			Quantum: batchQuantum, Scheme: p.scheme, Placement: p.placement, Timeout: runTimeout,
		},
		Threads: p.lit.Threads,
		Mem:     p.lit.Mem,
	}.Run()
	rec.leaveIf(spClusterRun, t)
	if err != nil {
		// Nodes the coordinator never reached would wait for it forever;
		// a failed op does not wait for them.
		return outcome{}, err
	}
	t = rec.enterIf(spJoin)
	err = join()
	rec.leaveIf(spJoin, t)
	if err != nil {
		return outcome{}, err
	}
	t = rec.enterIf(spCheck)
	read := func(a uint32) uint32 { return res.Mem[a] }
	o := outcome{ctr: resultCounters(&res.Result)}
	o.digest = digest(o.ctr, res.FinalRegs, read, p.sample)
	for _, n := range res.NodeNet {
		o.wire.NodeMsgs += n.MsgsSent
		o.wire.NodeBatches += n.BatchesSent
		o.wire.NodeBytes += n.BytesSent
	}
	o.wire.CoordMsgs, o.wire.CoordBatches = res.CoordNet.MsgsSent, res.CoordNet.BatchesSent
	err = p.verify(o, read, res.FinalRegs, &res.Result)
	rec.leaveIf(spCheck, t)
	rec.leaveIf(spOp, opStart)
	return o, err
}

// enterIf and leaveIf let the shared op bodies run with or without a
// recorder.
func (r *recorder) enterIf(k spanKind) int64 {
	if r == nil {
		return -1
	}
	return r.enter(k)
}

func (r *recorder) leaveIf(k spanKind, start int64) {
	if r != nil {
		r.leave(k, start)
	}
}

// --- tracing decorators ---------------------------------------------------

// tracedLocal brackets the channel transport's calls and the memory
// handler the machine installs through it (the home shard).
type tracedLocal struct {
	*transport.Local
	rec     *recorder
	capture *transport.Context // receives the first migrated context, if non-nil
	once    sync.Once          // core goroutines send concurrently
}

func (t *tracedLocal) SendMigration(dst geom.CoreID, c transport.Context) error {
	if t.capture != nil {
		t.once.Do(func() {
			*t.capture = c
			t.capture.Sched = bytes.Clone(c.Sched)
		})
	}
	s := t.rec.enter(spSendMig)
	err := t.Local.SendMigration(dst, c)
	t.rec.leave(spSendMig, s)
	return err
}

func (t *tracedLocal) SendEviction(dst geom.CoreID, c transport.Context) error {
	s := t.rec.enter(spSendEvict)
	err := t.Local.SendEviction(dst, c)
	t.rec.leave(spSendEvict, s)
	return err
}

func (t *tracedLocal) Flush() error {
	s := t.rec.enter(spFlush)
	err := t.Local.Flush()
	t.rec.leave(spFlush, s)
	return err
}

func (t *tracedLocal) Remote(dst geom.CoreID, req transport.MemRequest) (transport.MemReply, error) {
	s := t.rec.enter(spRemote)
	rep, err := t.Local.Remote(dst, req)
	t.rec.leave(spRemote, s)
	return rep, err
}

func (t *tracedLocal) HandleMem(h func(geom.CoreID, transport.MemRequest) transport.MemReply) {
	t.Local.HandleMem(func(c geom.CoreID, req transport.MemRequest) transport.MemReply {
		s := t.rec.enter(spShard)
		rep := h(c, req)
		t.rec.leave(spShard, s)
		return rep
	})
}

func (t *tracedLocal) SendLeaseInval(inv transport.LeaseInval) error {
	s := t.rec.enter(spLeaseUpdate)
	err := t.Local.SendLeaseInval(inv)
	t.rec.leave(spLeaseUpdate, s)
	return err
}

type tracedPolicy struct {
	placement.Policy
	rec *recorder
}

func (p tracedPolicy) Touch(a cache.Addr, by geom.CoreID) geom.CoreID {
	s := p.rec.enter(spTouch)
	home := p.Policy.Touch(a, by)
	p.rec.leave(spTouch, s)
	return home
}

type tracedScheme struct {
	core.Scheme
	rec *recorder
}

func (s tracedScheme) NewPredictor(thread int) core.Predictor {
	return tracedPredictor{Predictor: s.Scheme.NewPredictor(thread), rec: s.rec}
}

// tracedLeaser keeps a lease scheme's LeaseWindow visible through the
// decorator: the machine finds it by type assertion.
type tracedLeaser struct {
	tracedScheme
	core.Leaser
}

func traceScheme(s core.Scheme, rec *recorder) core.Scheme {
	ts := tracedScheme{Scheme: s, rec: rec}
	if l, ok := s.(core.Leaser); ok {
		return tracedLeaser{tracedScheme: ts, Leaser: l}
	}
	return ts
}

type tracedPredictor struct {
	core.Predictor
	rec *recorder
}

func (p tracedPredictor) Decide(info core.AccessInfo) core.Decision {
	s := p.rec.enter(spDecide)
	d := p.Predictor.Decide(info)
	p.rec.leave(spDecide, s)
	return d
}

func (p tracedPredictor) Observe(home geom.CoreID, addr cache.Addr) {
	s := p.rec.enter(spObserve)
	p.Predictor.Observe(home, addr)
	p.rec.leave(spObserve, s)
}

func (p tracedPredictor) AppendState(b []byte) []byte {
	s := p.rec.enter(spStateAppend)
	b = p.Predictor.AppendState(b)
	p.rec.leave(spStateAppend, s)
	return b
}

func (p tracedPredictor) SetState(b []byte) error {
	s := p.rec.enter(spStateSet)
	err := p.Predictor.SetState(b)
	p.rec.leave(spStateSet, s)
	return err
}

// capturedContext is a context as a workload ships it, predictor state
// included — the input of the codec and node-pair probes.
type capturedContext = transport.Context

// captureContext runs one channel op only to copy its first migrated
// context (for workloads whose own ops run where no decorator reaches).
func (p *batchProgram) captureContext(ctx *capturedContext) error {
	_, _, err := p.runPart(&recorder{base: time.Now()}, ctx)
	return err
}

// schedStateBytes is the predictor state a context carries under scheme.
func (p *batchProgram) schedStateBytes() (int, error) {
	cfg, err := p.config()
	if err != nil {
		return 0, err
	}
	return cfg.Scheme.NewPredictor(0).StateLen(), nil
}

// --- serve ------------------------------------------------------------------

// serveSpec is the fixed serving configuration of both serve workloads;
// only the seed and the backend vary.
type serveSpec struct {
	seed int64
	jobs int
	tcp  bool
}

func (s serveSpec) config(sink telemetry.Sink) serve.Config {
	return serve.Config{
		W: 4, H: 4,
		Workload:    "mix",
		Jobs:        s.jobs,
		Seed:        s.seed,
		MeanGap:     1500,
		MaxInflight: 8,
		Timeout:     runTimeout,
		Sink:        sink,
		SampleEvery: 5000,
	}
}

// session is what one serve.Run produced and what its backend wrapper saw.
type session struct {
	report    []byte // canonical Report JSON
	digest    uint64 // report bytes and telemetry stream
	submitted int
	completed int
	rejected  int
	scChecked int
	ctr       counters

	simMsgs, simFlits, simCycles float64 // per completed job
	latP50, latP99               float64 // cycles

	runJobNs, retireNs []int64 // per completed job, in order
	bringupNs, runNs   int64   // runNs, cpuNs, mallocs and bytes bracket the serve.Run call alone
	cpuNs              int64
	mallocs, bytes     uint64
	sampleNs, drainNs  int64
	samples            int
	sinkNs, sinkBytes  int64
	sinkWrites         int
	wireMsgs           int64 // every endpoint's sent frames between the first and last sample
	wireJobs           int   // jobs completed between those samples

	sample *transport.Sample // a captured telemetry sample (capture only)
	scJobs []scJob           // captured SC-check inputs (capture only)
}

type scJob struct {
	init   map[uint32]uint32
	events []machine.Event
}

// timedBackend is the pass-through serve.Backend of the serve workloads.
// Untraced it only reads the clock around RunJob and Retire; with a
// recorder it also emits spans and captures probe inputs.
type timedBackend struct {
	serve.Backend
	s   *session
	rec *recorder

	firstNet, lastNet   transport.NetStats
	firstJobs, lastJobs int
}

const maxSCJobs = 256

func (b *timedBackend) RunJob(j *serve.Job, timeout time.Duration) ([]transport.HaltMsg, error) {
	t := b.rec.enterIf(spRunJob)
	t0 := time.Now()
	h, err := b.Backend.RunJob(j, timeout)
	b.s.runJobNs = append(b.s.runJobNs, int64(time.Since(t0)))
	b.rec.leaveIf(spRunJob, t)
	return h, err
}

func (b *timedBackend) Retire(j *serve.Job, timeout time.Duration) ([]machine.Event, error) {
	t := b.rec.enterIf(spRetire)
	t0 := time.Now()
	ev, err := b.Backend.Retire(j, timeout)
	b.s.retireNs = append(b.s.retireNs, int64(time.Since(t0)))
	b.rec.leaveIf(spRetire, t)
	if b.rec != nil && len(b.s.scJobs) < maxSCJobs {
		b.s.scJobs = append(b.s.scJobs, scJob{init: j.Mem, events: slices.Clone(ev)})
	}
	return ev, err
}

func (b *timedBackend) Sample() (transport.Sample, error) {
	t := b.rec.enterIf(spSample)
	t0 := time.Now()
	s, err := b.Backend.Sample()
	b.s.sampleNs += int64(time.Since(t0))
	b.rec.leaveIf(spSample, t)
	if b.s.samples == 0 {
		b.firstNet, b.firstJobs = s.Net, len(b.s.retireNs)
	}
	b.lastNet, b.lastJobs = s.Net, len(b.s.retireNs)
	b.s.samples++
	if b.rec != nil && b.s.sample == nil {
		c := s
		c.PerCore, c.Guests = slices.Clone(s.PerCore), slices.Clone(s.Guests)
		b.s.sample = &c
	}
	return s, err
}

func (b *timedBackend) Drain(timeout time.Duration) (*serve.DrainResult, error) {
	t := b.rec.enterIf(spDrain)
	t0 := time.Now()
	d, err := b.Backend.Drain(timeout)
	b.s.drainNs = int64(time.Since(t0))
	b.rec.leaveIf(spDrain, t)
	return d, err
}

// hashSink is the serve workloads' telemetry sink: it counts and checksums
// the stream, which is deterministic and identical across backends. CRC-32C
// is hardware-assisted, so the sink costs the run a tenth of a microsecond
// per sample rather than the microseconds a bytewise hash would.
type hashSink struct {
	s   *session
	rec *recorder
	crc uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (k *hashSink) Write(lines []byte) error {
	t := k.rec.enterIf(spSinkWrite)
	t0 := time.Now()
	k.crc = crc32.Update(k.crc, castagnoli, lines)
	k.s.sinkWrites++
	k.s.sinkBytes += int64(len(lines))
	k.s.sinkNs += int64(time.Since(t0))
	k.rec.leaveIf(spSinkWrite, t)
	return nil
}

func (k *hashSink) Close() error { return nil }

// jobNs is each completed job's op time: its RunJob plus its Retire.
func (s *session) jobNs() []int64 {
	out := make([]int64, len(s.runJobNs))
	for i := range out {
		out[i] = s.runJobNs[i] + s.retireNs[i]
	}
	return out
}

// runSession brings a backend up, serves spec.jobs arrivals through it and
// tears it down. Bring-up is timed apart from the run: jobs are the ops,
// so only the serve.Run call is metered.
func runSession(spec serveSpec, rec *recorder) (*session, error) {
	s := &session{runJobNs: make([]int64, 0, spec.jobs), retireNs: make([]int64, 0, spec.jobs)}
	sink := &hashSink{s: s, rec: rec}
	cfg := spec.config(sink)

	t := rec.enterIf(spBringup)
	t0 := time.Now()
	var be serve.Backend
	join := func() error { return nil }
	var err error
	if spec.tcp {
		var man transport.Manifest
		if man, join, err = hostCluster(cfg.W, cfg.H, nil); err != nil {
			return nil, err
		}
		be, err = serve.NewClusterBackend(cfg, man)
	} else {
		be, err = serve.NewLocalBackend(cfg)
	}
	s.bringupNs = int64(time.Since(t0))
	rec.leaveIf(spBringup, t)
	if err != nil {
		// The nodes of a cluster that never loaded exit on their own only
		// if the coordinator reached them; do not wait for them here.
		return nil, err
	}
	tb := &timedBackend{Backend: be, s: s, rec: rec}

	t = rec.enterIf(spServeRun)
	m := startMeter()
	rep, err := serve.Run(cfg, tb)
	s.runNs, s.cpuNs, s.mallocs, s.bytes = m.stop()
	rec.leaveIf(spServeRun, t)
	be.Close()
	if err = errors.Join(err, join()); err != nil {
		return nil, err
	}

	if s.report, err = rep.JSON(); err != nil {
		return nil, err
	}
	h := fnvOffset
	h.u32(sink.crc)
	h.bytes(s.report)
	s.digest = uint64(h)
	s.submitted, s.completed, s.rejected, s.scChecked = rep.Submitted, rep.Completed, rep.Rejected, rep.SCChecked
	s.ctr = countersOf(func(k string) int64 { return rep.Counters[k] })
	if rep.Completed > 0 {
		s.simMsgs = rep.MsgsPerJob.Mean
		s.simCycles = rep.LatencyCycles.Mean
		s.simFlits = float64(s.ctr.simFlits()) / float64(rep.Completed)
	}
	s.latP50, s.latP99 = rep.LatencyCycles.P50, rep.LatencyCycles.P99
	s.wireMsgs = tb.lastNet.Sub(tb.firstNet).MsgsSent
	s.wireJobs = tb.lastJobs - tb.firstJobs
	return s, nil
}

// --- probes: public functions called in bulk --------------------------------

// probeLoop runs a one-thread program on a 1x1 machine and returns wall
// nanoseconds and the instruction count — the isa/interp rung.
func probeLoop(src string, runs int) (ns float64, instr int64, err error) {
	prog, err := isa.Assemble(src)
	if err != nil {
		return 0, 0, err
	}
	cfg := machine.Config{Mesh: geom.NewMesh(1, 1), Placement: placement.NewPageStriped(hopPage, 1), Quantum: batchQuantum}
	ns, err = medianOf(runs, func() (float64, error) {
		m, err := machine.New(cfg, 1)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := m.Run([]machine.ThreadSpec{{Program: prog}})
		if err != nil {
			return 0, err
		}
		instr = res.Instructions
		return float64(time.Since(t0)), nil
	})
	return ns, instr, err
}

// probeInterp returns ns per ALU instruction and ns per local memory
// operation (the memory loop's time above the ALU rate for its length).
func probeInterp(runs int) (aluNs, memopNs float64, err error) {
	ns, instr, err := probeLoop(aluLoop(), runs)
	if err != nil {
		return 0, 0, err
	}
	aluNs = ns / float64(instr)
	ns, instr, err = probeLoop(memLoop(), runs)
	if err != nil {
		return 0, 0, err
	}
	memops := float64(probeIters * probeBody)
	return aluNs, max(0, ns-aluNs*(float64(instr)-memops)) / memops, nil
}

// probeN is the call count of the bulk probes at full scale.
const probeN = 1 << 20

// probeLease times the three lease-cache operations the runtime performs,
// on a cache of the machine's own default size holding live leases.
func probeLease(window uint64, calls int) (lookupNs, fillNs, updateNs float64) {
	lc := core.NewLeaseCache(core.DefaultLeaseEntries, window)
	n := core.DefaultLeaseEntries
	for i := 0; i < n; i++ {
		lc.Fill(cache.Addr(4*i), uint32(i), 0)
	}
	var sink uint32
	lookupNs = perCallNs(calls, func(i int) {
		v, _ := lc.Lookup(cache.Addr(4*(i%n)), 1)
		sink += v
	})
	updateNs = perCallNs(calls, func(i int) { lc.Update(cache.Addr(4*(i%n)), uint32(i)) })
	// Fills walk a footprint twice the capacity, so every one evicts.
	fillNs = perCallNs(calls, func(i int) { lc.Fill(cache.Addr(4*(i%(2*n))), uint32(i), uint64(i)) })
	_ = sink
	return
}

// probeCodec times the context wire codec on a context as the workload
// ships it, and the frame batch codec on a flush's worth of such frames.
func probeCodec(ctx transport.Context, calls int) (encNs, decNs, frameEncNs, frameDecNs float64, err error) {
	buf := ctx.AppendWire(nil)
	encNs = perCallNs(calls, func(int) { buf = ctx.AppendWire(buf[:0]) })
	var out transport.Context
	decNs = perCallNs(calls, func(int) {
		if e := out.DecodeWire(buf); e != nil {
			err = e
		}
	})
	if err != nil {
		return
	}
	frames := make([]transport.Frame, 0, 9)
	for i := 0; i < 6; i++ {
		frames = append(frames, transport.Frame{Kind: transport.FrameMigration, Dst: geom.CoreID(i % 4), Ctx: buf})
	}
	frames = append(frames,
		transport.Frame{Kind: transport.FrameEviction, Dst: 2, Ctx: buf},
		transport.Frame{Kind: transport.FrameMemReq, Dst: 1, ID: 7,
			Req: transport.MemRequest{Thread: 3, TSeq: 99, Op: transport.OpRead, Addr: 64}},
		transport.Frame{Kind: transport.FrameMemRep, ID: 7, Rep: transport.MemReply{Value: 41}},
	)
	batch := transport.AppendBatch(nil, frames)
	per := float64(len(frames))
	batches := max(1, calls/8)
	frameEncNs = perCallNs(batches, func(int) { batch = transport.AppendBatch(batch[:0], frames) }) / per
	frameDecNs = perCallNs(batches, func(int) {
		if e := transport.DecodeBatch(batch, func(transport.Frame) error { return nil }); e != nil {
			err = e
		}
	}) / per
	return
}

// probeNodePair times the TCP data plane between two real loopback
// endpoints. hopUs is a one-way context hop alone on the wire
// (SendMigration + Flush until it arrives in the destination inbox) and
// rttUs a remote-access round trip, both medians: the latencies a
// sequential control plane waits for. msgUs is the cost of one message
// when probeInflight of them are in flight, each flushed on its own as the
// machine flushes per execution slice: what a message costs a run that has
// other threads to execute meanwhile.
func probeNodePair(ctx transport.Context, rounds int) (hopUs, rttUs, msgUs float64, err error) {
	man, err := loopbackManifest(clusterNodes, 2, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	dst, err := transport.ListenNode(man, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	defer dst.Close()
	dst.Prepare(probeInflight)
	dst.HandleMem(func(geom.CoreID, transport.MemRequest) transport.MemReply { return transport.MemReply{Value: 1} })
	dst.Ready()
	src, err := transport.ListenNode(man, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	defer src.Close()

	ctx.Native = 1
	in := dst.MigrationIn(1)
	burst := func(n int) func() (float64, error) {
		return func() (float64, error) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := src.SendMigration(1, ctx); err != nil {
					return 0, err
				}
				if err := src.Flush(); err != nil {
					return 0, err
				}
			}
			for i := 0; i < n; i++ {
				select {
				case <-in:
				case <-time.After(runTimeout):
					return 0, errors.New("probe: context never arrived")
				}
			}
			return float64(time.Since(t0)) / 1e3 / float64(n), nil
		}
	}
	if _, err = burst(1)(); err != nil { // the first hop waits for the peer dial
		return 0, 0, 0, err
	}
	if hopUs, err = medianOf(rounds, burst(1)); err != nil {
		return 0, 0, 0, err
	}
	if msgUs, err = medianOf(max(1, rounds/5), burst(probeInflight)); err != nil {
		return 0, 0, 0, err
	}
	rttUs, err = medianOf(rounds, func() (float64, error) {
		t0 := time.Now()
		_, err := src.Remote(1, transport.MemRequest{Op: transport.OpRead, Addr: 64})
		return float64(time.Since(t0)) / 1e3, err
	})
	return hopUs, rttUs, msgUs, err
}

// probeInflight is the hop kernel's thread count: how many contexts its
// TCP run keeps in flight.
const probeInflight = hopThreads

// probeManifest times LocalManifest (port reservation), ms.
func probeManifest(runs int) (float64, error) {
	return medianOf(runs, func() (float64, error) {
		t0 := time.Now()
		_, err := transport.LocalManifest(clusterNodes, 4, 4)
		return msSince(t0), err
	})
}

// probeNullCluster times a 2-node ClusterRun whose threads only HALT:
// bring-up, load, collect and shutdown at zero work. Median, ms.
func probeNullCluster(runs int) (float64, error) {
	threads := make([]machine.ThreadSpec, hopThreads)
	for i := range threads {
		threads[i] = machine.ThreadSpec{Program: []isa.Instr{{Op: isa.HALT}}}
	}
	return medianOf(runs, func() (float64, error) {
		t0 := time.Now()
		man, join, err := hostCluster(4, 4, nil)
		if err != nil {
			return 0, err
		}
		_, err = machine.ClusterRun{
			Manifest: man,
			Config:   machine.ClusterConfig{Quantum: batchQuantum, Placement: "page-striped:4096", Timeout: runTimeout},
			Threads:  threads,
		}.Run()
		if err != nil {
			return 0, err
		}
		return msSince(t0), join()
	})
}

// probeSCCheck times machine.CheckSCFrom on the captured jobs, µs per job.
func probeSCCheck(jobs []scJob, rounds int) (float64, error) {
	if len(jobs) == 0 {
		return 0, nil
	}
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, j := range jobs {
			if err := machine.CheckSCFrom(j.init, j.events); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(t0)) / 1e3 / float64(rounds*len(jobs)), nil
}

// probeRebase times serve.Rebase over the mix workload's three job kinds,
// µs per job.
func probeRebase(seed int64, rounds int) (float64, error) {
	kinds := []machine.Litmus{
		machine.StoreBufferingLitmus(64),
		machine.AtomicCounterLitmus(3, 4),
		machine.RandomLitmus(uint64(seed), machine.RandOpts{PrivateWrites: true}),
	}
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		if _, _, err := serve.Rebase(kinds[r%len(kinds)], serve.RegionBytes); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / 1e3 / float64(rounds), nil
}

// probeSampleEncode times telemetry.AppendSamplePoints on a captured
// sample, µs per sample.
func probeSampleEncode(s *transport.Sample, calls int) float64 {
	if s == nil {
		return 0
	}
	var buf []byte
	return perCallNs(calls, func(i int) { buf = telemetry.AppendSamplePoints(buf[:0], s, uint64(i)) }) / 1e3
}

// syntheticContext is the context a serve job ships under always-migrate:
// a full register file and no predictor state.
func syntheticContext() transport.Context {
	c := transport.Context{Thread: 1, Native: 1, MemSeq: 12, Cycles: 345, Msgs: 6}
	c.Arch.PC = 7
	for i := range c.Arch.Regs {
		c.Arch.Regs[i] = uint32(i) * 0x9E3779B9
	}
	return c
}
