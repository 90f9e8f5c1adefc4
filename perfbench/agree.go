package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
	"byzex/internal/trace"
)

// agreeSpec is one agreement workload: a protocol at (n, t) on the
// in-memory engine, its key scheme, an optional fault plan, and the paper's
// message bound the measured counts must stay within.
type agreeSpec struct {
	proto    protocol.Protocol
	n, t     int
	ed25519  bool
	faults   string
	msgBound int
}

// agreeKeys builds the workload's one-time state: the signature keys and the
// compiled fault plan, both drawn from seed.
func agreeKeys(sp agreeSpec, seed int64) (sig.Scheme, *faultnet.Plan, error) {
	var scheme sig.Scheme = sig.NewHMAC(sp.n, seed)
	if sp.ed25519 {
		ed, err := sig.NewEd25519(sp.n, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, nil, err
		}
		scheme = ed
	}
	if sp.faults == "" {
		return scheme, nil, nil
	}
	spec, err := faultnet.ParseSpec(sp.faults)
	if err != nil {
		return nil, nil, err
	}
	plan, err := faultnet.Compile(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	if err := plan.CheckBudget(sp.n, sp.t); err != nil {
		return nil, nil, fmt.Errorf("fault plan out of budget: %w", err)
	}
	return scheme, plan, nil
}

// agreeAcc sums the traced run's per-layer time over all runs.
type agreeAcc struct {
	runs                   int
	wall, setup, newEngine time.Duration
	engine, steps, check   time.Duration
	sigTime                time.Duration
	msgs                   int
	cacheHits, cacheMisses int
	faultActions           int
	sig                    sigCounters
}

// runAgreement runs agreement instances back to back from one goroutine
// for the run's duration (and at least sz.minRuns of them untraced, so the
// p90 has ten runs beyond it). Run i uses instance seed seed + i. The
// transmitter always sends 1: these protocols are binary, 0 is their
// default decision and costs fewer messages, so a mix of values would make
// run time bimodal and its median jump between the two modes.
func runAgreement(e *runEnv, sp agreeSpec) (*result, error) {
	r := newResult()
	ctx := context.Background()

	// Setup is built once up front and again at even intervals through the
	// run, so setup_s samples the whole run's machine, not one moment.
	setups := make([]float64, 0, e.sz.setupReps)
	keys := func() (sig.Scheme, *faultnet.Plan, error) {
		t0 := time.Now()
		s, p, err := agreeKeys(sp, e.seed)
		setups = append(setups, time.Since(t0).Seconds())
		return s, p, err
	}
	scheme, plan, err := keys()
	if err != nil {
		return nil, err
	}

	acc := &agreeAcc{}
	tmpl := core.Config{Protocol: sp.proto, N: sp.n, T: sp.t, Scheme: scheme, Faults: plan}
	if plan != nil {
		tmpl.FaultyOverride = plan.Affected(sp.n)
	}
	if e.traced {
		tmpl.Scheme = &timedScheme{Scheme: scheme, c: &acc.sig}
	}

	type counts struct{ msgs, sigs, phases int }
	var ref *counts
	walls := make([]float64, 0, 256)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var paused time.Duration // spent rebuilding the setup, not running
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= maxMeasure || (el >= e.dur && (e.traced || len(walls) >= e.sz.minRuns)) {
			break
		}
		if k := len(setups); k < e.sz.setupReps && el >= e.dur*time.Duration(k)/time.Duration(e.sz.setupReps) {
			t0 := time.Now()
			if _, _, err := keys(); err != nil {
				return nil, err
			}
			paused += time.Since(t0)
		}
		cfg := tmpl
		cfg.Seed = e.seed + int64(i)
		cfg.Value = 1
		t0 := time.Now()
		var (
			res *core.Result
			v   ident.Value
			err error
		)
		if e.traced {
			res, v, err = tracedAgree(ctx, cfg, acc, e.log, uint64(i))
		} else {
			res, v, err = core.RunAndCheck(ctx, cfg)
		}
		wall := time.Since(t0)
		r.attempted++
		if err != nil {
			r.lose("run %d: %v", i, err)
			continue
		}
		if v != cfg.Value {
			r.lose("run %d: decided %v, transmitter sent %v", i, v, cfg.Value)
			continue
		}
		c := counts{res.Sim.Report.MessagesCorrect, res.Sim.Report.SignaturesCorrect, res.Phases}
		if ref == nil {
			ref = &c
		}
		if c != *ref {
			r.lose("run %d: msgs/sigs/phases %v differ from run 0's %v", i, c, *ref)
			continue
		}
		if c.msgs > sp.msgBound {
			r.lose("run %d: %d correct messages exceed the paper's bound %d", i, c.msgs, sp.msgBound)
			continue
		}
		walls = append(walls, ms(wall))
	}
	elapsed := time.Since(start) - paused
	runtime.ReadMemStats(&m1)

	if ref == nil {
		r.fail("no agreement run succeeded")
		return r, nil
	}

	n := len(walls)
	p50, p90 := pct(walls, 50), pct(walls, 90)
	perSec := float64(n) / elapsed.Seconds()
	r.set("setup_s", midMean(setups))
	r.set("lat_ms_p50", p50)
	r.set("lat_ms_tail", p90)
	r.set("values_per_s", perSec)
	r.set("msgs_per_value", float64(ref.msgs))
	r.set("sigs_per_value", float64(ref.sigs))
	r.set("peak_rss_mb", peakRSSMB())
	r.figure("run_ms_p50", p50, "ms", n)
	r.figure("run_ms_p90", p90, "ms", n)
	if !e.traced && !supports(n, 90) {
		r.fail("only %d runs: too few for a p90 with ten runs beyond it", n)
	}
	r.figure("runs_per_s", perSec, "1/s", 0)
	r.figure("msgs_per_run", float64(ref.msgs), "count", 0)
	r.figure("sigs_per_run", float64(ref.sigs), "count", 0)
	r.figure("phases", float64(ref.phases), "count", 0)

	setRuntime(r, &m0, &m1, float64(n), float64(n))
	if e.traced {
		runs := float64(acc.runs)
		r.set("core.setup_ms", ms(acc.setup)/runs)
		r.set("core.setup_share", ratio(float64(acc.setup), float64(acc.wall)))
		r.set("protocols.step_ms", ms(acc.steps-acc.sigTime)/runs)
		self := acc.engine - acc.steps
		r.set("sim.engine_self_ms", ms(self)/runs)
		r.set("sim.engine_self_us_per_msg", ratio(us(self), float64(acc.msgs)))
		setSig(r, &acc.sig, runs, acc.cacheHits, acc.cacheMisses)
		r.set("faultnet.actions_per_run", float64(acc.faultActions)/runs)
		covered := acc.setup + acc.newEngine + acc.engine + acc.check
		r.set("bench.unattributed_frac", ratio(float64(acc.wall-covered), float64(acc.wall)))
	}
	return r, nil
}

// tracedAgree is core.RunAndCheck taken apart at its public seams
// (core.NewSetup, sim.New, Engine.Run, core.CheckDecisions) so each piece
// can be timed and every node's Step wrapped.
func tracedAgree(ctx context.Context, cfg core.Config, acc *agreeAcc, log *spanLog, id uint64) (*core.Result, ident.Value, error) {
	sig0 := acc.sig.verifyNs.Load() + acc.sig.signNs.Load()
	t0 := time.Now()
	setup, err := core.NewSetup(cfg)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	clock := &stepClock{}
	for i, nd := range setup.Nodes {
		setup.Nodes[i] = &timedNode{Node: nd, clock: clock}
	}
	var (
		sink trace.Sink
		sum  *trace.Summary
	)
	if cfg.Faults != nil {
		sum = &trace.Summary{}
		sink = summarySink{s: sum}
	}
	core.EmitCorruptions(sink, setup.Faulty)
	setup.Verifier.SetTrace(sink)
	eng, err := sim.New(sim.Config{
		N: cfg.N, T: cfg.T, Transmitter: cfg.Transmitter, Phases: setup.Phases,
		Faulty: setup.Faulty, Rushing: cfg.Rushing, Trace: sink, Faults: cfg.Faults,
	}, setup.Nodes)
	if err != nil {
		return nil, 0, err
	}
	t2 := time.Now()
	simRes, err := eng.Run(ctx)
	if err != nil {
		return nil, 0, err
	}
	t3 := time.Now()
	hits, misses := setup.Verifier.Stats()
	simRes.Report.SigCacheHits, simRes.Report.SigCacheMisses = int(hits), int(misses)
	v, err := core.CheckDecisions(simRes.Decisions, setup.Faulty, cfg.Transmitter, cfg.Value)
	t4 := time.Now()
	sigTime := time.Duration(acc.sig.verifyNs.Load() + acc.sig.signNs.Load() - sig0)

	acc.runs++
	acc.wall += t4.Sub(t0)
	acc.setup += t1.Sub(t0)
	acc.newEngine += t2.Sub(t1)
	acc.engine += t3.Sub(t2)
	acc.steps += clock.total
	acc.check += t4.Sub(t3)
	acc.sigTime += sigTime
	acc.msgs += simRes.Report.MessagesTotal()
	acc.cacheHits += int(hits)
	acc.cacheMisses += int(misses)
	if sum != nil {
		acc.faultActions += sum.FaultDrops + sum.FaultDelays + sum.FaultDups + sum.FaultReorders + sum.FaultCrashes
	}

	log.add("run", "", id, t0, t4, 0)
	log.add("core.setup", "run", id, t0, t1, 0)
	log.add("sim.new", "run", id, t1, t2, 0)
	log.add("sim.run", "run", id, t2, t3, 0)
	log.add("protocols.step", "sim.run", id, t2, t2.Add(clock.total), clock.steps)
	log.add("sig", "protocols.step", id, t2, t2.Add(sigTime), 0)
	log.add("core.check", "run", id, t3, t4, 0)

	out := &core.Result{Sim: simRes, Faulty: setup.Faulty, Phases: setup.Phases, Nodes: setup.Nodes}
	if err != nil {
		return out, 0, err
	}
	return out, v, nil
}

// setSig reports the signature layer's counters per unit of work (agreement
// run or served instance).
func setSig(r *result, c *sigCounters, units float64, hits, misses int) {
	if units == 0 {
		return
	}
	r.set("sig.verify_calls", float64(c.verifies.Load())/units)
	r.set("sig.verify_ms", ms(time.Duration(c.verifyNs.Load()))/units)
	r.set("sig.sign_calls", float64(c.signs.Load())/units)
	r.set("sig.sign_ms", ms(time.Duration(c.signNs.Load()))/units)
	r.set("sig.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
}

// setRuntime reports allocation and GC over the measured interval, per unit
// of work (runs: agreement runs, restarts or served instances) and per
// decided value.
func setRuntime(r *result, m0, m1 *runtime.MemStats, runs, values float64) {
	alloc := float64(m1.TotalAlloc - m0.TotalAlloc)
	r.set("runtime.alloc_mb_per_run", ratio(alloc/(1<<20), runs))
	r.set("runtime.alloc_kb_per_value", ratio(alloc/(1<<10), values))
	r.set("runtime.gc_count", float64(m1.NumGC-m0.NumGC))
	r.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
}
