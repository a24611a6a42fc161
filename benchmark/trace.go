package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
)

// The traced pass is short: per-layer numbers come from a handful of ops
// with the decorators installed, never from the timed window.
const (
	tracedOps   = 5    // batch ops in the traced pass
	tracedJobs  = 2000 // serve jobs in the traced session
	refSeconds  = 1.0  // untraced reference ops measured beside the traced ones
	g2Ops       = 10   // extra ops at GOMAXPROCS=2 for machine.g2_ratio
	ctrlBarrier = 3    // sequential round trips in a serve job's lifecycle: submit/ack, inject/halt, retire
)

// tracer carries one traced run's state. scale shrinks every repeat count
// below (reference window, traced session, probes) when -seconds is under
// one, which only the test-scale run uses; the contract's runs are all at
// scale 1.
type tracer struct {
	p     *prepared
	rec   *recorder
	v     values
	res   *result
	scale float64
}

func (t *tracer) n(full int) int { return max(1, int(float64(full)*t.scale)) }

// rung is one line of the ladder: a layer's count per op times its unit
// cost, to be set against the untraced op time.
type rung struct {
	layer  string
	count  float64
	unitNs float64
}

func (r rung) ns() float64 { return r.count * r.unitNs }

// runTraced produces every per-layer metric for one workload: an untraced
// reference, the traced pass, the probes on this workload's path, the
// two-P diagnostic, and the ladder with its residual.
func runTraced(out io.Writer, def *workloadDef, seed int64, seconds float64) (*result, error) {
	p, err := prepare(def, seed, 0) // one warm-up op
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	v := values{}
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	rec := newRecorder()
	v["trace.clock_ns"] = rec.insideNs
	res := &result{}
	t := &tracer{p: p, rec: rec, v: v, res: res, scale: min(1, seconds)}

	var rungs []rung
	var refP50, tracedP50 float64
	if def.kind == serveJobs {
		rungs, refP50, tracedP50, err = t.traceServe(seed)
	} else {
		rungs, refP50, tracedP50, err = t.traceBatch()
	}
	if err != nil {
		return nil, err
	}
	v["trace.overhead_ratio"] = tracedP50/refP50 - 1

	// Two-P diagnostic: the same untraced ops with a second P.
	runtime.GOMAXPROCS(2)
	g2, err := t.untracedP50(t.n(g2Ops))
	runtime.GOMAXPROCS(1)
	if err != nil {
		return nil, err
	}
	v["machine.g2_ratio"] = g2 / refP50

	var explained float64
	fmt.Fprintf(out, "ladder against the untraced op p50 of %.4g ms (count x unit cost):\n", refP50/1e6)
	for _, r := range rungs {
		explained += r.ns()
		fmt.Fprintf(out, "  %-28s %12.6g x %10.4g ns = %9.4g ms  %6.2f%%\n",
			r.layer, r.count, r.unitNs, r.ns()/1e6, 100*r.ns()/refP50)
	}
	v["ladder.explained_ratio"] = explained / refP50
	v["ladder.residual_ratio"] = 1 - explained/refP50
	fmt.Fprintf(out, "  %-28s %50.2f%%\n", "residual (unmeasured)", 100*(1-explained/refP50))

	tracePath := filepath.Join("benchmark", "out", "trace-"+def.name+".json")
	if err := rec.writeChromeTrace(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "first traced op written to %s\n", tracePath)

	m, err := report(perLayer, v)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, "per-layer (traced pass, probes, counters):")
	printTable(out, perLayer, m)
	res.Metrics = m
	res.Correct = res.Failed == 0
	return res, nil
}

// sessionJobs is the traced session's size (and its untraced twin's).
func (t *tracer) sessionJobs() int { return max(200, t.n(tracedJobs)) }

// untracedP50 runs n untraced ops (batch) or one untraced session the size
// of the traced one (serve) and returns the median op time in ns.
func (t *tracer) untracedP50(n int) (float64, error) {
	p, res := t.p, t.res
	if p.def.kind == serveJobs {
		spec := p.spec
		spec.jobs = t.sessionJobs()
		s, err := runSession(spec, nil)
		if err != nil {
			return 0, err
		}
		countSession(res, s)
		return percentile(s.jobNs(), 0.5), nil
	}
	w := runBatchFor(0, n, p.op)
	res.Attempted += w.attempted
	res.Failed += w.failed
	if w.failed > 0 {
		return 0, w.firstErr
	}
	return w.opNsPercentile(0.5), nil
}

func countSession(res *result, s *session) {
	res.Attempted += s.submitted
	res.Failed += s.rejected + s.completed - s.scChecked
}

// traceBatch is the traced pass of a batch workload.
func (t *tracer) traceBatch() (rungs []rung, refP50, tracedP50 float64, err error) {
	p, rec, v, res := t.p, t.rec, t.v, t.res
	prog := p.prog
	w := runBatchFor(refSeconds*t.scale, 1, p.op)
	res.Attempted += w.attempted
	res.Failed += w.failed
	if w.failed > 0 {
		return nil, 0, 0, w.firstErr
	}
	refP50 = w.opNsPercentile(0.5)

	var ctx capturedContext
	var wire wireStats
	opNs := make([]int64, 0, tracedOps)
	for i := 0; i < tracedOps; i++ {
		rec.op.Store(int32(i))
		rec.keep.Store(i == 0)
		t0 := rec.now()
		var o outcome
		if p.def.kind == batchTCP {
			o, err = prog.runTCP(rec)
		} else {
			o, _, err = prog.runPart(rec, &ctx)
		}
		opNs = append(opNs, rec.now()-t0)
		res.Attempted++
		if err != nil {
			res.Failed++
			return nil, 0, 0, err
		}
		wire = o.wire
	}
	rec.keep.Store(false)
	tracedP50 = percentile(opNs, 0.5)

	ops := float64(tracedOps)
	ctr := prog.want.ctr
	perOp := func(k spanKind) float64 { return rec.calls(k) / ops }
	coarseMs := func(k spanKind) float64 { return rec.meanNs(k) / 1e6 }

	v["wprog.compile_ms"], v["core.predict_ms"] = prog.compileMs, prog.predictMs
	v["machine.instr_per_op"] = float64(ctr.Instructions)
	v["machine.memops_per_op"] = float64(ctr.memOps())
	v["machine.local_ops_per_op"] = float64(ctr.LocalOps)
	v["transport.migrations_per_op"] = float64(ctr.Migrations)
	v["transport.remote_ops_per_op"] = float64(ctr.remoteOps())
	v["transport.evictions_per_op"] = float64(ctr.Evictions)
	if n := ctr.LeaseHits + ctr.LeaseMisses; n > 0 {
		v["core.lease_hit_ratio"] = float64(ctr.LeaseHits) / float64(n)
	}
	stateBytes, err := prog.schedStateBytes()
	if err != nil {
		return nil, 0, 0, err
	}
	v["core.sched_state_bytes"] = float64(stateBytes)

	alu, memop, err := probeInterp(t.n(5))
	if err != nil {
		return nil, 0, 0, err
	}
	v["machine.alu_ns_per_instr"], v["machine.local_memop_ns"] = alu, memop
	rungs = append(rungs, rung{"machine (interpreter)", float64(ctr.Instructions), alu})

	if p.def.kind == batchTCP {
		// ServeNode builds its own transport, so nothing inside the nodes
		// can be wrapped: the TCP plane's numbers are its own counters and
		// the node-pair, null-run and codec probes.
		if err := prog.captureContext(&ctx); err != nil {
			return nil, 0, 0, err
		}
		tcp, err := t.probeTCP(ctx)
		if err != nil {
			return nil, 0, 0, err
		}
		v["transport.tcp_msgs_per_op"] = float64(wire.NodeMsgs)
		v["transport.tcp_batches_per_op"] = float64(wire.NodeBatches)
		v["transport.tcp_bytes_per_op"] = float64(wire.NodeBytes)
		v["transport.tcp_msgs_per_batch"] = float64(wire.NodeMsgs) / float64(wire.NodeBatches)
		v["transport.coord_msgs_per_op"] = float64(wire.CoordMsgs)
		v["transport.coord_batches_per_op"] = float64(wire.CoordBatches)
		rungs = append(rungs,
			rung{"machine (local memory ops)", float64(ctr.LocalOps), memop},
			rung{"transport (tcp messages)", float64(wire.NodeMsgs), tcp.msgUs * 1e3},
			rung{"machine (cluster null run)", 1, v["machine.cluster_null_run_ms"] * 1e6},
			rung{"benchmark (check)", 1, rec.meanNs(spCheck)},
		)
		return rungs, refP50, tracedP50, nil
	}

	v["placement.calls_per_op"], v["placement.touch_ns"] = perOp(spTouch), rec.meanNs(spTouch)
	v["core.decide_calls_per_op"], v["core.decide_ns"] = perOp(spDecide), rec.meanNs(spDecide)
	v["core.observe_ns"] = rec.meanNs(spObserve)
	v["core.sched_codec_ns"] = rec.meanNs(spStateAppend) + rec.meanNs(spStateSet)
	v["core.lease_updates_per_op"] = perOp(spLeaseUpdate)
	v["transport.local_send_ns"] = rec.meanNs(spSendMig)
	v["transport.flush_calls_per_op"], v["transport.flush_ns"] = perOp(spFlush), rec.meanNs(spFlush)
	v["machine.shard_calls_per_op"] = perOp(spShard)
	v["machine.new_ms"], v["machine.collect_ms"] = coarseMs(spNew), coarseMs(spCollect)

	// Self times: a span minus the part its children cover, and minus what
	// bracketing the children cost. Remote contains the shard handler,
	// which contains the lease write-updates it fans out.
	work := func(k spanKind) float64 { w, _ := rec.totalNs(k); return w }
	over := func(k spanKind) float64 { _, o := rec.totalNs(k); return o }
	shardSelf := max(0, work(spShard)-work(spLeaseUpdate)-over(spLeaseUpdate))
	remoteSelf := max(0, work(spRemote)-work(spShard)-over(spShard))
	v["machine.shard_ns_per_memop"] = shardSelf / rec.calls(spShard)
	v["transport.local_remote_ns"] = remoteSelf / rec.calls(spRemote)
	// Everything the machine did between injection and the last HALT that
	// no decorator saw: interpreter, scheduler, channels, context
	// allocation.
	execSelf := work(spRun)
	for _, k := range []spanKind{spTouch, spDecide, spObserve, spStateAppend, spStateSet,
		spSendMig, spSendEvict, spFlush, spRemote} {
		execSelf -= work(k) + over(k)
	}
	v["machine.exec_self_ns_per_instr"] = max(0, execSelf) / ops / float64(ctr.Instructions)

	rungs = append(rungs,
		rung{"machine (shard)", perOp(spShard), v["machine.shard_ns_per_memop"]},
		rung{"machine (new, preload, start)", 1, rec.meanNs(spNew) + rec.meanNs(spPreload) + rec.meanNs(spStart)},
		rung{"machine (stop, collect)", 1, rec.meanNs(spStop) + rec.meanNs(spCollect)},
		rung{"placement (touch)", perOp(spTouch), rec.meanNs(spTouch)},
		rung{"core (observe)", perOp(spObserve), rec.meanNs(spObserve)},
		rung{"core (decide)", perOp(spDecide), rec.meanNs(spDecide)},
		rung{"core (predictor state codec)", perOp(spStateAppend), v["core.sched_codec_ns"]},
		rung{"transport (local send)", perOp(spSendMig) + perOp(spSendEvict), rec.meanNs(spSendMig)},
		rung{"transport (local remote)", perOp(spRemote), v["transport.local_remote_ns"]},
		rung{"transport (flush)", perOp(spFlush), rec.meanNs(spFlush)},
		rung{"benchmark (check)", 1, rec.meanNs(spCheck)},
	)
	if ctr.LeaseHits+ctr.LeaseMisses > 0 {
		look, fill, upd := probeLease(64, t.n(probeN))
		v["core.lease_lookup_ns"], v["core.lease_fill_ns"], v["core.lease_update_ns"] = look, fill, upd
		rungs = append(rungs,
			rung{"core (lease hit)", float64(ctr.LeaseHits), look},
			rung{"core (lease fill)", float64(ctr.LeaseMisses), fill},
			rung{"core (lease write-update)", perOp(spLeaseUpdate), upd + rec.meanNs(spLeaseUpdate)},
		)
	}
	return rungs, refP50, tracedP50, nil
}

// tcpCosts are the TCP plane's probed unit costs.
type tcpCosts struct{ hopUs, rttUs, msgUs float64 }

// probeTCP runs the probes of the TCP plane and stores their metrics.
func (t *tracer) probeTCP(ctx capturedContext) (tcpCosts, error) {
	var c tcpCosts
	var err error
	v := t.v
	if v["transport.codec_encode_ns"], v["transport.codec_decode_ns"],
		v["transport.frame_encode_ns_per_msg"], v["transport.frame_decode_ns_per_msg"], err = probeCodec(ctx, t.n(probeN)); err != nil {
		return c, err
	}
	if c.hopUs, c.rttUs, c.msgUs, err = probeNodePair(ctx, t.n(2000)); err != nil {
		return c, err
	}
	v["transport.tcp_hop_us"], v["transport.tcp_rtt_us"], v["transport.tcp_msg_us"] = c.hopUs, c.rttUs, c.msgUs
	if v["transport.manifest_ms"], err = probeManifest(t.n(9)); err != nil {
		return c, err
	}
	v["machine.cluster_null_run_ms"], err = probeNullCluster(t.n(9))
	return c, err
}

// traceServe is the traced pass of a serve workload: one untraced and one
// traced session of tracedJobs jobs on the same inputs.
func (t *tracer) traceServe(seed int64) (rungs []rung, refP50, tracedP50 float64, err error) {
	p, rec, v, res := t.p, t.rec, t.v, t.res
	if refP50, err = t.untracedP50(0); err != nil {
		return nil, 0, 0, err
	}
	spec := p.spec
	spec.jobs = t.sessionJobs()
	rec.keep.Store(true)
	s, err := runSession(spec, rec)
	rec.keep.Store(false)
	if err != nil {
		return nil, 0, 0, err
	}
	countSession(res, s)
	tracedP50 = percentile(s.jobNs(), 0.5)

	jobs := float64(s.completed)
	us := func(ns float64) float64 { return ns / 1e3 }
	v["machine.instr_per_op"] = float64(s.ctr.Instructions) / jobs
	v["machine.memops_per_op"] = float64(s.ctr.memOps()) / jobs
	v["machine.local_ops_per_op"] = float64(s.ctr.LocalOps) / jobs
	v["transport.migrations_per_op"] = float64(s.ctr.Migrations) / jobs
	v["transport.remote_ops_per_op"] = float64(s.ctr.remoteOps()) / jobs
	v["transport.evictions_per_op"] = float64(s.ctr.Evictions) / jobs
	v["serve.bringup_ms"] = float64(s.bringupNs) / 1e6
	v["serve.drain_ms"] = float64(s.drainNs) / 1e6
	v["serve.runjob_us_p50"], v["serve.runjob_us_p99"] = us(percentile(s.runJobNs, 0.5)), us(percentile(s.runJobNs, 0.99))
	v["serve.retire_us_p50"], v["serve.retire_us_p99"] = us(percentile(s.retireNs, 0.5)), us(percentile(s.retireNs, 0.99))
	v["serve.job_us_p99"] = us(percentile(s.jobNs(), 0.99))
	var backendNs int64
	for _, d := range s.jobNs() {
		backendNs += d
	}
	backendNs += s.sampleNs + s.drainNs + s.sinkNs
	v["serve.self_us_per_job"] = us(float64(s.runNs-backendNs)) / jobs
	v["serve.instr_per_job"] = float64(s.ctr.Instructions) / jobs
	v["serve.msgs_per_job"] = s.simMsgs
	v["serve.rejected_per_kjob"] = 1000 * float64(s.rejected) / float64(s.submitted)
	v["serve.sim_lat_cycles_p50"], v["serve.sim_lat_cycles_p99"] = s.latP50, s.latP99
	if s.wireJobs > 0 {
		v["serve.wire_msgs_per_job"] = float64(s.wireMsgs) / float64(s.wireJobs)
	}
	if s.samples > 0 {
		v["telemetry.samples_per_kjob"] = 1000 * float64(s.samples) / jobs
		v["telemetry.bytes_per_sample"] = float64(s.sinkBytes) / float64(s.sinkWrites)
		v["telemetry.sink_write_ns"] = rec.meanNs(spSinkWrite)
		v["telemetry.sample_us"] = us(rec.meanNs(spSample))
	}

	alu, memop, err := probeInterp(t.n(5))
	if err != nil {
		return nil, 0, 0, err
	}
	v["machine.alu_ns_per_instr"], v["machine.local_memop_ns"] = alu, memop
	if v["machine.sc_check_us_per_job"], err = probeSCCheck(s.scJobs, t.n(40)); err != nil {
		return nil, 0, 0, err
	}
	if v["serve.build_us_per_job"], err = probeRebase(seed, t.n(20_000)); err != nil {
		return nil, 0, 0, err
	}
	v["telemetry.encode_us_per_sample"] = probeSampleEncode(s.sample, t.n(probeN/16))

	rungs = append(rungs,
		rung{"machine (interpreter)", v["machine.instr_per_op"], alu},
		rung{"machine (memory ops)", v["machine.memops_per_op"], memop},
	)
	if p.def.tcp {
		tcp, err := t.probeTCP(syntheticContext())
		if err != nil {
			return nil, 0, 0, err
		}
		rungs = append(rungs, rung{"transport (control round trips)", ctrlBarrier, tcp.rttUs * 1e3})
	}
	return rungs, refP50, tracedP50, nil
}
