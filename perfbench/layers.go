package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/journal"
	"byzex/internal/service"
	"byzex/internal/sig"
	"byzex/internal/sim"
	"byzex/internal/trace"
)

// The traced run times each layer from outside the program, by wrapping
// interfaces the program already accepts: sig.Scheme and its Signers,
// sim.Node, service.Substrate and service.Journal. The wrappers forward
// every call unchanged, so a traced run executes exactly what an untraced
// one does, plus the clock reads.

// sigCounters accumulates signature work. Atomic, because a served
// instance signs and verifies from several mesh goroutines at once.
type sigCounters struct {
	verifies, verifyNs atomic.Int64
	signs, signNs      atomic.Int64
}

func (c *sigCounters) reset() {
	c.verifies.Store(0)
	c.verifyNs.Store(0)
	c.signs.Store(0)
	c.signNs.Store(0)
}

// timedScheme counts and times every Verify and, through the Signers it
// mints, every Sign. Name passes through by embedding.
type timedScheme struct {
	sig.Scheme
	c *sigCounters
}

func (s *timedScheme) Verify(id ident.ProcID, msg, sigBytes []byte) bool {
	t0 := time.Now()
	ok := s.Scheme.Verify(id, msg, sigBytes)
	s.c.verifyNs.Add(int64(time.Since(t0)))
	s.c.verifies.Add(1)
	return ok
}

func (s *timedScheme) Signer(id ident.ProcID) (sig.Signer, error) {
	inner, err := s.Scheme.Signer(id)
	if err != nil {
		return nil, err
	}
	return &timedSigner{Signer: inner, c: s.c}, nil
}

type timedSigner struct {
	sig.Signer
	c *sigCounters
}

func (s *timedSigner) Sign(msg []byte) []byte {
	t0 := time.Now()
	out := s.Signer.Sign(msg)
	s.c.signNs.Add(int64(time.Since(t0)))
	s.c.signs.Add(1)
	return out
}

// stepClock sums the time nodes spend in Step during one engine run. The
// in-memory engine steps nodes from one goroutine, so no locking.
type stepClock struct {
	total time.Duration
	steps int
}

// timedNode times Step; Decide passes through by embedding.
type timedNode struct {
	sim.Node
	clock *stepClock
}

func (n *timedNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	t0 := time.Now()
	err := n.Node.Step(ctx, inbox)
	n.clock.total += time.Since(t0)
	n.clock.steps++
	return err
}

// summarySink folds trace events straight into a Summary, so the traced
// agreement run counts fault actions without buffering its event stream.
type summarySink struct{ s *trace.Summary }

func (k summarySink) Emit(e trace.Event) { k.s.Add(e) }

// span is one timed interval of the traced run. ID links a span to its
// agreement run (run index) or served instance (instance id); Parent names
// the enclosing span. A span with Count > 1 is the sum of that many calls
// (node steps, signature calls), laid end to end from Start.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	ID     uint64 `json:"id"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
	Count  int    `json:"count,omitempty"`
}

// spanLog keeps a traced run's spans in memory; write saves them as JSON
// lines when the run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(name, parent string, id uint64, start, end time.Time, count int) {
	if l == nil {
		return
	}
	s := span{
		Name: name, Parent: parent, ID: id,
		Start: start.Sub(l.epoch).Microseconds(), End: end.Sub(l.epoch).Microseconds(),
		Count: count,
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// instSpans are the serving-side timestamps of one instance, linked by
// instance id: Journal.Admit and the shard's RunFunc.
type instSpans struct {
	admit0, admit1 time.Time
	run0, run1     time.Time
	bytes          int
	ran            bool
}

// serveLayers records the serving pipeline's layer boundaries. Instance
// ids come from Instance.ID inside Admit and from cfg.Seed − Template.Seed
// inside the RunFunc.
type serveLayers struct {
	tmplSeed int64
	log      *spanLog

	mu          sync.Mutex
	insts       map[uint64]*instSpans
	firstRuns   []float64 // ms, first instance on each shard (includes the mesh dial)
	checkpoints []float64 // ms per mid-run or drain checkpoint
	midRun      int       // checkpoints written by live compaction (MaybeCheckpoint)
}

func newServeLayers(tmplSeed int64, log *spanLog) *serveLayers {
	return &serveLayers{tmplSeed: tmplSeed, log: log, insts: make(map[uint64]*instSpans)}
}

func (l *serveLayers) inst(id uint64) *instSpans {
	s := l.insts[id]
	if s == nil {
		s = &instSpans{}
		l.insts[id] = s
	}
	return s
}

// lookup returns a copy of instance id's spans.
func (l *serveLayers) lookup(id uint64) (instSpans, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.insts[id]
	if !ok {
		return instSpans{}, false
	}
	return *s, true
}

// timedSubstrate times each shard's RunFunc.
type timedSubstrate struct {
	inner service.Substrate
	l     *serveLayers
}

func (s *timedSubstrate) Open(shard int) service.RunFunc {
	run := s.inner.Open(shard)
	if run == nil {
		return nil
	}
	first := true // the handle is only called from its own shard, one instance at a time
	return func(ctx context.Context, cfg core.Config) (service.Outcome, error) {
		t0 := time.Now()
		out, err := run(ctx, cfg)
		t1 := time.Now()
		id := uint64(cfg.Seed - s.l.tmplSeed)
		s.l.mu.Lock()
		is := s.l.inst(id)
		is.run0, is.run1, is.bytes, is.ran = t0, t1, out.Report.BytesCorrect, true
		if first {
			s.l.firstRuns = append(s.l.firstRuns, ms(t1.Sub(t0)))
		}
		s.l.mu.Unlock()
		first = false
		return out, err
	}
}

func (s *timedSubstrate) Close(shard int) { s.inner.Close(shard) }

// timedJournal times Admit and checkpoints. It implements
// service.CompactingJournal like the writer it wraps: the service finds
// that interface by type assertion, and a wrapper without it would turn
// live compaction off.
type timedJournal struct {
	w *journal.Writer
	l *serveLayers
}

var _ service.CompactingJournal = (*timedJournal)(nil)

func (j *timedJournal) Admit(inst service.Instance) error {
	t0 := time.Now()
	err := j.w.Admit(inst)
	t1 := time.Now()
	j.l.mu.Lock()
	is := j.l.inst(inst.ID)
	is.admit0, is.admit1 = t0, t1
	j.l.mu.Unlock()
	return err
}

func (j *timedJournal) Checkpoint(watermark uint64, stats service.Stats) error {
	t0 := time.Now()
	err := j.w.Checkpoint(watermark, stats)
	j.l.recordCheckpoint(time.Since(t0))
	return err
}

func (j *timedJournal) MaybeCheckpoint(watermark uint64, stats service.Stats) (bool, error) {
	t0 := time.Now()
	wrote, err := j.w.MaybeCheckpoint(watermark, stats)
	if wrote {
		j.l.recordCheckpoint(time.Since(t0))
		j.l.mu.Lock()
		j.l.midRun++
		j.l.mu.Unlock()
	}
	return wrote, err
}

func (l *serveLayers) recordCheckpoint(d time.Duration) {
	l.mu.Lock()
	l.checkpoints = append(l.checkpoints, ms(d))
	l.mu.Unlock()
}
