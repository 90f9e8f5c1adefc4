package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/journal"
	"byzex/internal/obs"
	"byzex/internal/service"
)

// scrapeEvery is the cadence at which the busy phase renders the metrics
// exposition, as a Prometheus scraper polling /metrics would.
const scrapeEvery = 100 * time.Millisecond

// serveFlags builds the serving configuration through baserve's own flag
// surface, so the benchmark serves exactly what `baserve` would with these
// flags: alg1-multi at n = 5, t = 2, warm TCP meshes, two shards, adaptive
// batching in [1, 16], and baserve's defaults for everything else (-fsync
// always, a checkpoint every -checkpoint-every admissions) except the
// queue. The queue holds 8192 instead of 64 values: on a shared VM the
// whole process can stall, and when it resumes the generator submits every
// arrival that fell due meanwhile at once, so the queue must hold a stall's
// worth of arrivals or the run sheds values and fails. 8192 slots hold a
// 4 s stall at 2000/s, near the mesh's 5 s phase timeout, past which an
// instance fails anyway. The batching policy reads the queue's depth, never
// its capacity, so the capacity changes nothing until the queue is full.
func serveFlags(seed int64, journalDir string, sz sizes) (*cli.ServeFlags, error) {
	fs := flag.NewFlagSet("baserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sf := cli.RegisterServeFlags(fs)
	err := fs.Parse([]string{
		"-protocol", "alg1-multi", "-n", "5", "-t", "2",
		"-seed", strconv.FormatInt(seed, 10),
		"-transport", "tcp", "-warm-mesh",
		"-shards", "2", "-adaptive", "-batch-min", "1", "-batch-max", "16", "-queue", "8192",
		"-journal-dir", journalDir,
		"-checkpoint-every", strconv.Itoa(sz.checkpointEvery),
	})
	return sf, err
}

// serveTemplate resolves the instance template from the flags; a traced
// run wraps its signature scheme.
func serveTemplate(sf *cli.ServeFlags, sigc *sigCounters) (core.Config, error) {
	tmpl, warn, err := sf.Template().Resolve()
	if err != nil {
		return core.Config{}, err
	}
	if warn != "" {
		return core.Config{}, errors.New(warn)
	}
	if sigc != nil {
		tmpl.Scheme = &timedScheme{Scheme: tmpl.Scheme, c: sigc}
	}
	return tmpl, nil
}

// served is one running service and its journal.
type served struct {
	svc     *service.Service
	jw      *journal.Writer
	rec     *journal.Recovery
	tmpl    core.Config
	openDur time.Duration // journal.Open: scan, torn-tail repair, fresh segment
	newDur  time.Duration // service.New
}

// openService opens the journal in dir and starts a service over it the
// way baserve does. layers and sigc are nil on an untraced run; wrap, when
// set, wraps the substrate (the restart workload's shadow sampler).
func openService(dir string, e *runEnv, layers *serveLayers, sigc *sigCounters, wrap func(service.Substrate) service.Substrate) (*served, error) {
	sf, err := serveFlags(e.seed, dir, e.sz)
	if err != nil {
		return nil, err
	}
	tmpl, err := serveTemplate(sf, sigc)
	if err != nil {
		return nil, err
	}
	cfg, err := sf.ServiceConfig(tmpl)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	jw, rec, err := sf.OpenJournal(tmpl)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	cfg.Journal = jw
	cfg.FirstInstance = rec.FirstInstance()
	cfg.BaseStats = rec.BaseStats()
	if wrap != nil {
		cfg.Substrate = wrap(cfg.Substrate)
	}
	if layers != nil {
		cfg.Journal = &timedJournal{w: jw, l: layers}
		cfg.Substrate = &timedSubstrate{inner: cfg.Substrate, l: layers}
	}
	svc, err := service.New(context.Background(), cfg)
	if err != nil {
		_ = jw.Close()
		return nil, err
	}
	return &served{svc: svc, jw: jw, rec: rec, tmpl: tmpl, openDur: t1.Sub(t0), newDur: time.Since(t1)}, nil
}

// close drains the service and closes the journal. The writer's Close
// returns its sticky error (Err), so nil means the journal took every
// write and sync.
func (s *served) close() error {
	s.svc.Close()
	return s.jw.Close()
}

// valRec is one submitted value's timeline.
type valRec struct {
	due, s0, s1, ack time.Time
	value            ident.Value
	id               uint64 // the instance that served the value
	err              error  // rejection or failed result
}

// checkResult applies the served-value gate: committed, no error, and the
// instance decided exactly the packed batch that contains the value.
func checkResult(res service.Result, v ident.Value) error {
	if res.Err != nil {
		return res.Err
	}
	if !res.Committed || res.Instance == nil {
		return fmt.Errorf("value %d acked without a commit", v)
	}
	in := res.Instance
	if in.Decided != in.Config.Value || res.Decided != in.Decided {
		return fmt.Errorf("instance %d decided %d, packed %d", in.ID, in.Decided, in.Config.Value)
	}
	if service.PackValues(in.Values) != in.Config.Value {
		return fmt.Errorf("instance %d packed value does not match its batch", in.ID)
	}
	for _, x := range in.Values {
		if x == v {
			return nil
		}
	}
	return fmt.Errorf("value %d missing from instance %d's batch", v, in.ID)
}

// samples keeps the served instances picked for shadow re-execution: every
// instance whose id is a multiple of every. Only those are retained, so a
// long run does not keep every instance's decisions alive.
type samples struct {
	every uint64
	mu    sync.Mutex
	byID  map[uint64]*service.InstanceResult
}

func newSamples(every int) *samples {
	return &samples{every: uint64(every), byID: make(map[uint64]*service.InstanceResult)}
}

func (s *samples) offer(in *service.InstanceResult) {
	if s == nil || in == nil || in.ID%s.every != 0 {
		return
	}
	s.mu.Lock()
	s.byID[in.ID] = in
	s.mu.Unlock()
}

func (s *samples) list() []*service.InstanceResult {
	out := make([]*service.InstanceResult, 0, len(s.byID))
	for _, in := range s.byID {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// inflight is one submitted value awaiting its result.
type inflight struct {
	i  int
	ch <-chan service.Result
}

// collect receives each in-flight value's result in submission order
// (delivery is instance-id ordered, so an earlier value never resolves
// after a later one) and stamps its ack time.
func collect(recs []valRec, q <-chan inflight, smp *samples) {
	for f := range q {
		res := <-f.ch
		rc := &recs[f.i]
		rc.ack = time.Now()
		rc.err = checkResult(res, rc.value)
		if res.Instance != nil {
			rc.id = res.Instance.ID
			smp.offer(res.Instance)
		}
	}
}

// openLoop submits one value at each scheduled arrival from a single
// goroutine, while a second goroutine collects the results. Latency is
// timed from the scheduled arrival, so a stall of the generator or the
// service is charged to every value due during it.
func openLoop(svc *service.Service, start time.Time, sched []time.Duration, rng *rand.Rand, smp *samples) []valRec {
	recs := make([]valRec, len(sched))
	for i := range recs {
		recs[i].value = ident.Value(rng.Int63n(1 << 40))
	}
	q := make(chan inflight, len(sched)) // sized to the number of sends: the generator never waits on the collector
	done := make(chan struct{})
	go func() {
		defer close(done)
		collect(recs, q, smp)
	}()
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		recs[i].due = due
		recs[i].s0 = time.Now()
		ch, err := svc.Submit(recs[i].value)
		recs[i].s1 = time.Now()
		if err != nil {
			recs[i].err = err
			continue
		}
		q <- inflight{i: i, ch: ch}
	}
	close(q)
	<-done
	return recs
}

// satResult is what one saturation window measured.
type satResult struct {
	attempted, acked int
	errs             []error
	elapsed          time.Duration // from the first submission to the last ack
}

// closedWindow keeps window submissions outstanding for d, then waits for
// the outstanding ones to resolve.
func closedWindow(svc *service.Service, window int, d time.Duration, rng *rand.Rand, smp *samples) satResult {
	var out satResult
	sem := make(chan struct{}, window) // counting semaphore: window values outstanding
	type pending struct {
		v  ident.Value
		ch <-chan service.Result
	}
	q := make(chan pending, window) // never holds more than the window
	var (
		failed  []error // written by the collector only
		acked   int
		lastAck time.Time
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range q {
			res := <-p.ch
			lastAck = time.Now()
			if err := checkResult(res, p.v); err != nil {
				failed = append(failed, err)
			} else {
				acked++
			}
			smp.offer(res.Instance)
			<-sem
		}
	}()
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		sem <- struct{}{}
		v := ident.Value(rng.Int63n(1 << 40))
		out.attempted++
		ch, err := svc.Submit(v)
		if err != nil {
			out.errs = append(out.errs, err)
			<-sem
			continue
		}
		q <- pending{v: v, ch: ch}
	}
	close(q)
	<-done
	out.errs = append(out.errs, failed...)
	out.acked = acked
	out.elapsed = lastAck.Sub(start)
	return out
}

// scrape renders exp every scrapeEvery, recording each render's time,
// until the returned stop function is called; stop returns once the
// scraping goroutine has exited.
func scrape(exp *obs.Exporter, out *[]float64) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				t0 := time.Now()
				_ = exp.Render()
				*out = append(*out, us(time.Since(t0)))
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// dialShards submits pairs of values until every shard has executed an
// instance, so each shard's warm mesh is dialed before timing starts. It
// returns the values it had acked.
func dialShards(s *served, rng *rand.Rand) ([]valRec, error) {
	var recs []valRec
	for try := 0; try < 200; try++ {
		st := s.svc.Stats()
		idle := false
		for _, n := range st.ShardInstances {
			idle = idle || n == 0
		}
		if !idle {
			return recs, nil
		}
		var chans []inflight
		for k := 0; k < 2; k++ {
			v := ident.Value(rng.Int63n(1 << 40))
			ch, err := s.svc.Submit(v)
			if err != nil {
				return recs, err
			}
			recs = append(recs, valRec{value: v})
			chans = append(chans, inflight{i: len(recs) - 1, ch: ch})
		}
		q := make(chan inflight, len(chans))
		for _, f := range chans {
			q <- f
		}
		close(q)
		collect(recs, q, nil)
	}
	return recs, errors.New("serve: a shard never ran an instance")
}

// tally applies the served-value gate to recs: each rejection or failed
// result is one failed value. It returns the number acked.
func tally(r *result, phase string, recs []valRec) int {
	acked := 0
	for _, rc := range recs {
		r.attempted++
		if rc.err != nil {
			r.lose("%s: value %d: %v", phase, rc.value, rc.err)
			continue
		}
		acked++
	}
	return acked
}

// latencies returns the arrival-to-ack times (ms) of the acked values.
func latencies(recs []valRec) []float64 {
	out := make([]float64, 0, len(recs))
	for _, rc := range recs {
		if rc.err == nil {
			out = append(out, ms(rc.ack.Sub(rc.due)))
		}
	}
	return out
}

// runServe is the serve-warm-tcp workload: one service, three load phases.
func runServe(e *runEnv) (*result, error) {
	r := newResult()
	rng := rand.New(rand.NewSource(e.seed))
	smp := newSamples(e.sz.shadowEvery)

	// Setup: journal.Open, service.New and the first instance on each shard
	// (the mesh dial). The measured service is set up first; throwaway
	// set-ups between load cycles sample the rest of the run. A traced
	// throwaway records its mesh dials but counts its signatures apart.
	var setups, opens, firstRun []float64
	setUp := func() (*served, *serveLayers, *sigCounters, []valRec, error) {
		var (
			layers *serveLayers
			sigc   *sigCounters
		)
		if e.traced {
			layers, sigc = newServeLayers(e.seed, e.log), &sigCounters{}
		}
		t0 := time.Now()
		s, err := openService(filepath.Join(e.dir, fmt.Sprintf("serve-%d", len(setups))), e, layers, sigc, nil)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		warm, err := dialShards(s, rng)
		if err != nil {
			_ = s.close()
			return nil, nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		opens = append(opens, ms(s.openDur))
		if layers != nil {
			firstRun = append(firstRun, layers.firstRuns...)
		}
		return s, layers, sigc, warm, nil
	}
	s, layers, sigc, warm, err := setUp()
	if err != nil {
		return nil, err
	}
	throwaway := func() error {
		t, _, _, w, err := setUp()
		if err != nil {
			return err
		}
		tally(r, "throwaway set-up", w)
		return t.close()
	}
	acked := tally(r, "warm-up", warm)

	// Only the measured phases count towards the signature layer.
	if sigc != nil {
		sigc.reset()
	}
	st0 := s.svc.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// The load phases are interleaved in windows — light, busy, sat, light,
	// busy, sat, ... — so each phase samples the whole run rather than one
	// stretch of it. The gated p50 and saturation rate are medians over
	// their phase's windows, which one disturbed window does not move. The
	// gated p99 is the best busy window's: the p99 of a one-second window
	// is its 20th-worst value, so a single 10 ms stall of the machine, which
	// a shared VM often has, sets it; only the least-stalled
	// window shows the program's own tail. The pooled figures print beside
	// the gated ones.
	exp := obs.NewExporter()
	exp.Register(obs.NewServiceCollector(s.svc))
	exp.Register(obs.NewJournalCollector(s.jw))
	var (
		light, busy                 []valRec
		lightP50, busyP99, satRates []float64
		scrapes                     []float64
		sat                         satResult
		satMsgs, satSigs, satValues uint64
	)
	win := e.sz.phaseWindow
	cycles := max(int(e.dur/(3*win)), 1)
	for c := 0; c < cycles; c++ {
		seed := e.seed + int64(2*c)
		lw := openLoop(s.svc, time.Now(), service.PoissonSchedule(seed+1, e.sz.lightRate, win), rng, smp)
		lightP50 = append(lightP50, pct(latencies(lw), 50))
		light = append(light, lw...)

		stop := scrape(exp, &scrapes)
		bw := openLoop(s.svc, time.Now(), service.PoissonSchedule(seed+2, e.sz.busyRate, win), rng, smp)
		stop()
		bl := latencies(bw)
		if !supports(len(bl), 99) {
			r.fail("busy window %d: only %d values, too few for a p99 with ten beyond it", c, len(bl))
		}
		busyP99 = append(busyP99, pct(bl, 99))
		busy = append(busy, bw...)

		a := s.svc.Stats()
		sw := closedWindow(s.svc, e.sz.satWindow, win, rng, smp)
		b := s.svc.Stats()
		satRates = append(satRates, float64(sw.acked)/sw.elapsed.Seconds())
		satMsgs += b.MessagesCorrect - a.MessagesCorrect
		satSigs += b.SignaturesCorrect - a.SignaturesCorrect
		satValues += b.ValuesDecided - a.ValuesDecided
		sat.attempted += sw.attempted
		sat.acked += sw.acked
		sat.errs = append(sat.errs, sw.errs...)

		for len(setups) < e.sz.setupReps*(c+1)/cycles {
			if err := throwaway(); err != nil {
				return nil, err
			}
		}
	}
	runtime.ReadMemStats(&m1)

	acked += tally(r, "light", light)
	acked += tally(r, "busy", busy)
	r.attempted += sat.attempted
	for _, err := range sat.errs {
		r.lose("sat: %v", err)
	}
	acked += sat.acked

	if err := s.close(); err != nil {
		r.fail("journal: %v", err)
	}
	st := s.svc.Stats()
	if st.ValuesDecided != uint64(acked) {
		r.fail("Stats.ValuesDecided %d != %d acked values", st.ValuesDecided, acked)
	}
	if st.InstancesFailed != 0 || st.RejectedFull != 0 {
		r.fail("service counted %d failed instances and %d rejections", st.InstancesFailed, st.RejectedFull)
	}
	js := s.jw.Stats()

	lightLat, busyLat := latencies(light), latencies(busy)
	lp50, bp99, satRate := pct(lightP50, 50), slices.Min(busyP99), pct(satRates, 50)
	msgsPerValue := ratio(float64(satMsgs), float64(satValues))
	sigsPerValue := ratio(float64(satSigs), float64(satValues))

	r.set("setup_s", midMean(setups))
	r.set("lat_ms_p50", lp50)
	r.set("lat_ms_tail", bp99)
	r.set("values_per_s", satRate)
	r.set("msgs_per_value", msgsPerValue)
	r.set("sigs_per_value", sigsPerValue)
	r.set("peak_rss_mb", peakRSSMB())
	r.figure("light.lat_ms_p50", pct(lightLat, 50), "ms", len(lightLat))
	r.figure("light.lat_ms_p99", pct(lightLat, 99), "ms", len(lightLat))
	r.figure("busy.lat_ms_p50", pct(busyLat, 50), "ms", len(busyLat))
	r.figure("busy.lat_ms_p99", pct(busyLat, 99), "ms", len(busyLat))
	r.figure("light.lat_ms_p50.window_median", lp50, "ms", len(lightP50))
	r.figure("light.lat_ms_p50.best_window", slices.Min(lightP50), "ms", len(lightP50))
	r.figure("busy.lat_ms_p99.best_window", bp99, "ms", len(busyP99))
	r.figure("busy.lat_ms_p99.window_median", pct(busyP99, 50), "ms", len(busyP99))
	r.figure("sat.values_per_s.window_median", satRate, "1/s", len(satRates))
	r.figure("sat.values_per_s.best_window", slices.Max(satRates), "1/s", len(satRates))
	r.figure("sat.values", float64(sat.acked), "count", 0)
	r.figure("sat.msgs_per_value", msgsPerValue, "count", 0)
	r.figure("sat.sigs_per_value", sigsPerValue, "count", 0)
	r.figure("light.rate", e.sz.lightRate, "1/s", 0)
	r.figure("busy.rate", e.sz.busyRate, "1/s", 0)
	r.figure("sat.window", float64(e.sz.satWindow), "count", 0)

	instances := float64(st.Instances - st0.Instances)
	values := float64(st.ValuesDecided - st0.ValuesDecided)
	setRuntime(r, &m0, &m1, instances, values)
	r.set("journal.open_ms", pct(opens, 50))
	if layers != nil {
		open := append(append([]valRec(nil), light...), busy...)
		setServeLayers(r, layers, open, firstRun)
		setSig(r, sigc, instances, 0, 0)
		r.set("service.batch_mean", ratio(values, instances))
		r.set("service.queue_high_water", float64(st.QueueHighWater))
		r.set("runner.shard_imbalance", shardImbalance(st.ShardInstances))
		r.set("journal.syncs_per_value", ratio(float64(js.Syncs), float64(st.ValuesDecided)))
		r.set("journal.bytes_per_value", ratio(float64(js.Bytes), float64(st.ValuesDecided)))
		r.set("obs.scrape_us_p50", pct(scrapes, 50))
		layers.mu.Lock()
		mid := layers.midRun
		layers.mu.Unlock()
		if st.Instances >= uint64(2*e.sz.checkpointEvery) && mid == 0 {
			r.fail("the traced service journaled %d instances without a mid-run checkpoint", st.Instances)
		}
		r.figure("journal.mid_run_checkpoints", float64(mid), "count", 0)
	}
	r.figure("journal.checkpoints", float64(js.Checkpoints), "count", 0)
	shadowCheck(r, smp.list())
	return r, nil
}

// setServeLayers derives the serving layers' figures from the open-loop
// values' timelines and their instances' spans, and records each value's
// spans in the span log.
func setServeLayers(r *result, l *serveLayers, recs []valRec, firstRun []float64) {
	var submit, admitWait, deliverWait, genLate []float64
	var admit, shardWait, run []float64
	var bytes, instN float64
	var total, covered time.Duration
	seen := make(map[uint64]bool)
	for _, rc := range recs {
		if rc.err != nil {
			continue
		}
		id := rc.id
		genLate = append(genLate, ms(rc.s0.Sub(rc.due)))
		submit = append(submit, us(rc.s1.Sub(rc.s0)))
		total += rc.ack.Sub(rc.s0)
		is, ok := l.lookup(id)
		if !ok || !is.ran || is.admit0.IsZero() {
			covered += rc.s1.Sub(rc.s0)
			continue
		}
		admitWait = append(admitWait, ms(nonneg(is.admit0.Sub(rc.s1))))
		deliverWait = append(deliverWait, ms(nonneg(rc.ack.Sub(is.run1))))
		covered += union(rc.s0, rc.ack, [][2]time.Time{
			{rc.s0, rc.s1}, {rc.s1, is.admit0}, {is.admit0, is.admit1},
			{is.admit1, is.run0}, {is.run0, is.run1}, {is.run1, rc.ack},
		})
		l.log.add("value", "", id, rc.s0, rc.ack, 0)
		l.log.add("service.submit", "value", id, rc.s0, rc.s1, 0)
		l.log.add("service.admit_wait", "value", id, rc.s1, is.admit0, 0)
		l.log.add("service.deliver_wait", "value", id, is.run1, rc.ack, 0)
		if seen[id] {
			continue
		}
		seen[id] = true
		admit = append(admit, ms(is.admit1.Sub(is.admit0)))
		shardWait = append(shardWait, ms(nonneg(is.run0.Sub(is.admit1))))
		run = append(run, ms(is.run1.Sub(is.run0)))
		bytes += float64(is.bytes)
		instN++
		l.log.add("journal.admit", "value", id, is.admit0, is.admit1, 0)
		l.log.add("runner.shard_wait", "value", id, is.admit1, is.run0, 0)
		l.log.add("transport.run", "value", id, is.run0, is.run1, 0)
	}
	r.set("service.submit_us_p50", pct(submit, 50))
	r.set("service.admit_wait_ms_p50", pct(admitWait, 50))
	r.set("service.admit_wait_ms_p99", pct(admitWait, 99))
	r.set("service.deliver_wait_ms_p50", pct(deliverWait, 50))
	r.set("service.deliver_wait_ms_p99", pct(deliverWait, 99))
	r.set("runner.shard_wait_ms_p50", pct(shardWait, 50))
	r.set("runner.shard_wait_ms_p99", pct(shardWait, 99))
	r.set("transport.run_ms_p50", pct(run, 50))
	r.set("transport.run_ms_p99", pct(run, 99))
	r.set("transport.first_run_ms", pct(firstRun, 50))
	r.set("transport.bytes_per_instance", ratio(bytes, instN))
	r.set("journal.admit_ms_p50", pct(admit, 50))
	r.set("journal.admit_ms_p99", pct(admit, 99))
	l.mu.Lock()
	r.set("journal.checkpoint_ms_p50", pct(l.checkpoints, 50))
	l.mu.Unlock()
	r.set("bench.gen_late_ms_p99", pct(genLate, 99))
	r.set("bench.unattributed_frac", ratio(float64(total-covered), float64(total)))
}

func nonneg(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// union returns how much of [lo, hi] the intervals cover.
func union(lo, hi time.Time, ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var sum time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a.Before(cur) {
			a = cur
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			sum += b.Sub(a)
			cur = b
		}
	}
	return sum
}

// shardImbalance is the busiest shard's instance count over the idlest's.
func shardImbalance(counts []uint64) float64 {
	if len(counts) == 0 {
		return 0
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts {
		lo, hi = min(lo, c), max(hi, c)
	}
	return ratio(float64(hi), float64(lo))
}

// shadowCheck re-executes sampled instances serially with core.Run on the
// in-memory engine (seed = Template.Seed + id, value = the packed batch)
// and requires the same decisions and correct-sender counters the served
// instance reported.
func shadowCheck(r *result, insts []*service.InstanceResult) {
	if len(insts) == 0 {
		r.fail("shadow re-execution sampled no instance")
		return
	}
	for _, in := range insts {
		cfg := in.Config
		cfg.Trace = nil
		serial, err := core.Run(context.Background(), cfg)
		if err != nil {
			r.fail("shadow: instance %d: %v", in.ID, err)
			continue
		}
		if !sameDecisions(serial.Sim.Decisions, in.Decisions) {
			r.fail("shadow: instance %d: decisions differ from serial core.Run", in.ID)
			continue
		}
		a, b := serial.Sim.Report, in.Report
		if a.MessagesCorrect != b.MessagesCorrect || a.SignaturesCorrect != b.SignaturesCorrect || a.BytesCorrect != b.BytesCorrect {
			r.fail("shadow: instance %d: served msgs/sigs/bytes %d/%d/%d, serial %d/%d/%d", in.ID,
				b.MessagesCorrect, b.SignaturesCorrect, b.BytesCorrect, a.MessagesCorrect, a.SignaturesCorrect, a.BytesCorrect)
		}
	}
	r.figure("shadow.instances", float64(len(insts)), "count", 0)
}

func sameDecisions[K comparable, V comparable](a, b map[K]V) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
