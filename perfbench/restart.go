package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/journal"
	"byzex/internal/service"
)

// restartBatch is the number of values in each journaled admission: a
// fixed batch keeps the replay's work, and its messages per value, the same
// for every seed.
const restartBatch = 8

// writeCrashJournal writes the restart workload's input through
// journal.Writer: sz.restartAdmissions admissions of restartBatch seeded
// values each, a checkpoint that leaves the last sz.restartPending of them pending,
// and a torn partial record at the tail, as a kill during a write leaves.
func writeCrashJournal(dir string, tmpl core.Config, sz sizes, seed int64) (pendingValues int, err error) {
	w, _, err := journal.Open(dir, journal.Options{Template: tmpl, Fsync: time.Millisecond})
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	delivered := uint64(sz.restartAdmissions - sz.restartPending)
	var base service.Stats
	for id := uint64(0); id < uint64(sz.restartAdmissions); id++ {
		vals := make([]ident.Value, restartBatch)
		for i := range vals {
			vals[i] = ident.Value(rng.Int63n(1 << 40))
		}
		if err := w.Admit(service.Instance{ID: id, Values: vals}); err != nil {
			_ = w.Close()
			return 0, err
		}
		base.Submitted += uint64(len(vals))
		if id < delivered {
			base.Instances++
			base.ValuesDecided += uint64(len(vals))
		} else {
			pendingValues += len(vals)
		}
	}
	if err := w.Checkpoint(delivered, base); err != nil {
		_ = w.Close()
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return pendingValues, tearTail(dir)
}

// tearTail appends a record header promising more body than follows to the
// newest segment.
func tearTail(dir string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "*.jrnl"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("restart input: no segment in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	torn := make([]byte, 8+24)
	binary.BigEndian.PutUint32(torn[:4], 96)
	if _, err := f.Write(torn); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// sampler offers every instance outcome the substrate returns to a sample
// set, for the shadow re-execution of replayed work (Recovery.Replay
// consumes the replayed results itself).
type sampler struct {
	inner service.Substrate
	seed  int64 // Template.Seed: instance id = cfg.Seed − seed
	smp   *samples
}

func (s *sampler) Open(shard int) service.RunFunc {
	run := s.inner.Open(shard)
	return func(ctx context.Context, cfg core.Config) (service.Outcome, error) {
		out, err := run(ctx, cfg)
		if err == nil {
			s.smp.offer(&service.InstanceResult{
				Instance:  service.Instance{ID: uint64(cfg.Seed - s.seed), Config: cfg},
				Decisions: out.Decisions, Report: out.Report, Faulty: out.Faulty,
			})
		}
		return out, err
	}
}

func (s *sampler) Close(shard int) { s.inner.Close(shard) }

// runRestart is the restart-replay workload: restart a crashed server from
// a pristine copy of the same journal, again and again.
func runRestart(e *runEnv) (*result, error) {
	r := newResult()
	var sigc *sigCounters
	if e.traced {
		sigc = &sigCounters{}
	}
	src := filepath.Join(e.dir, "crashed")
	sf, err := serveFlags(e.seed, src, e.sz)
	if err != nil {
		return nil, err
	}
	tmpl, err := serveTemplate(sf, sigc)
	if err != nil {
		return nil, err
	}
	pendingValues, err := writeCrashJournal(src, tmpl, e.sz, e.seed)
	if err != nil {
		return nil, fmt.Errorf("restart input: %w", err)
	}

	var (
		setups, restarts, opens, replays []float64
		firstRun, runs, admits           []float64
		bytes                            float64
		replayRates                      []float64 // replayed values per second, per restart
		msgs, sigs, values, instances    uint64
		total, covered                   time.Duration
		lastStats                        service.Stats
	)
	shadow := newSamples(e.sz.shadowEvery)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= maxMeasure || (el >= e.dur && len(restarts) >= e.sz.minRestarts) {
			break
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("restart-%d", i))
		if err := copyDir(src, dir); err != nil {
			return nil, err
		}
		var layers *serveLayers
		if e.traced {
			layers = newServeLayers(e.seed, e.log)
		}
		wrap := func(sub service.Substrate) service.Substrate {
			return &sampler{inner: sub, seed: e.seed, smp: shadow}
		}

		r.attempted++
		t0 := time.Now()
		s, err := openService(dir, e, layers, sigc, wrap)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		replayed, err := s.rec.Replay(s.svc, s.tmpl)
		s.jw.SetReplayed(uint64(replayed))
		t2 := time.Now()
		live, lerr := s.svc.SubmitWait(context.Background(), ident.Value(e.seed+int64(i)))
		t3 := time.Now()

		ok := true
		switch {
		case err != nil:
			r.lose("restart %d: replay: %v", i, err)
			ok = false
		case replayed != e.sz.restartPending || len(s.rec.Pending) != e.sz.restartPending:
			r.lose("restart %d: replayed %d of %d pending admissions", i, replayed, e.sz.restartPending)
			ok = false
		case s.rec.TruncatedBytes == 0:
			r.lose("restart %d: the torn tail was not repaired", i)
			ok = false
		case lerr != nil:
			r.lose("restart %d: live value: %v", i, lerr)
			ok = false
		case live.Instance.ID != s.rec.Watermark:
			r.lose("restart %d: first live instance %d, recovered watermark %d", i, live.Instance.ID, s.rec.Watermark)
			ok = false
		default:
			if err := checkResult(live, live.Value); err != nil {
				r.lose("restart %d: live value: %v", i, err)
				ok = false
			}
		}
		if err := s.close(); err != nil {
			r.lose("restart %d: journal: %v", i, err)
			ok = false
		}
		st := s.svc.Stats()
		base := s.rec.BaseStats()
		if base == nil {
			r.lose("restart %d: the journal's checkpoint was not recovered", i)
			ok = false
		} else if got, want := st.ValuesDecided-base.ValuesDecided, uint64(pendingValues+1); got != want {
			r.lose("restart %d: %d values decided after recovery, want %d replayed + 1 live", i, got, want)
			ok = false
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if !ok {
			continue
		}

		setups = append(setups, (s.openDur + s.newDur).Seconds())
		opens = append(opens, ms(s.openDur))
		replays = append(replays, ms(t2.Sub(t1)))
		restarts = append(restarts, ms(t3.Sub(t0)))
		replayRates = append(replayRates, float64(pendingValues)/t2.Sub(t1).Seconds())
		msgs += st.MessagesCorrect - base.MessagesCorrect
		sigs += st.SignaturesCorrect - base.SignaturesCorrect
		values += st.ValuesDecided - base.ValuesDecided
		instances += st.Instances - base.Instances
		lastStats = st
		total += t3.Sub(t0)
		covered += s.openDur + s.newDur + t2.Sub(t1) + t3.Sub(t2)
		if layers != nil {
			firstRun = append(firstRun, layers.firstRuns...)
			id := uint64(i)
			for iid, is := range layers.insts {
				if is.ran && !is.admit0.IsZero() {
					runs = append(runs, ms(is.run1.Sub(is.run0)))
					admits = append(admits, ms(is.admit1.Sub(is.admit0)))
					bytes += float64(is.bytes)
					e.log.add("journal.admit", "journal.replay", iid, is.admit0, is.admit1, 0)
					e.log.add("transport.run", "journal.replay", iid, is.run0, is.run1, 0)
				}
			}
			e.log.add("restart", "", id, t0, t3, 0)
			e.log.add("journal.open", "restart", id, t0, t0.Add(s.openDur), 0)
			e.log.add("service.new", "restart", id, t0.Add(s.openDur), t1, 0)
			e.log.add("journal.replay", "restart", id, t1, t2, 0)
			e.log.add("service.live_value", "restart", id, t2, t3, 0)
		}
	}
	runtime.ReadMemStats(&m1)
	if len(restarts) == 0 {
		r.fail("no restart succeeded")
		return r, nil
	}

	// The gated restart time and replay rate are medians over the run's
	// restarts; the fastest restart prints beside them.
	n := len(restarts)
	restartMs := pct(restarts, 50)
	valuesPerSec := pct(replayRates, 50)
	r.set("setup_s", midMean(setups))
	r.set("lat_ms_p50", restartMs)
	r.set("lat_ms_tail", restartMs) // ~20 restarts a run support no percentile above the median
	r.set("values_per_s", valuesPerSec)
	r.set("msgs_per_value", ratio(float64(msgs), float64(values)))
	r.set("sigs_per_value", ratio(float64(sigs), float64(values)))
	r.set("peak_rss_mb", peakRSSMB())
	r.figure("restart_ms.median", restartMs, "ms", n)
	r.figure("restart_ms.best", slices.Min(restarts), "ms", n)
	r.figure("replay_values_per_s.median", valuesPerSec, "1/s", n)
	r.figure("replay_values_per_s.best", slices.Max(replayRates), "1/s", n)
	r.figure("pending_admissions", float64(e.sz.restartPending), "count", 0)
	r.figure("pending_values", float64(pendingValues), "count", 0)

	setRuntime(r, &m0, &m1, float64(n), float64(values))
	r.set("journal.open_ms", pct(opens, 50))
	r.set("journal.replay_ms", pct(replays, 50))
	r.set("journal.replays_per_s", float64(e.sz.restartPending)/(pct(replays, 50)/1000))
	if e.traced {
		setSig(r, sigc, float64(instances), 0, 0)
		r.set("service.batch_mean", ratio(float64(values), float64(instances)))
		r.set("service.queue_high_water", float64(lastStats.QueueHighWater))
		r.set("runner.shard_imbalance", shardImbalance(lastStats.ShardInstances))
		r.set("transport.run_ms_p50", pct(runs, 50))
		r.set("transport.run_ms_p99", pct(runs, 99))
		r.set("transport.first_run_ms", pct(firstRun, 50))
		r.set("transport.bytes_per_instance", ratio(bytes, float64(len(runs))))
		r.set("journal.admit_ms_p50", pct(admits, 50))
		r.set("journal.admit_ms_p99", pct(admits, 99))
		r.set("bench.unattributed_frac", ratio(float64(total-covered), float64(total)))
	}
	shadowCheck(r, shadow.list())
	return r, nil
}
