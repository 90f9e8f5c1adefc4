package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/service"
	"byzex/internal/sim"
)

// tinySizes shrink every workload so the whole suite runs in seconds, while
// still meeting the percentile-support rules the gate enforces.
var tinySizes = sizes{
	alg5N: 64, alg5T: 3,
	alg2N: 9, alg2T: 4,
	alg2Faults: "crash=1@2;drop=2->*@2-6/0.5;dup=3->*@1-8;delay=4->*@1-4+1",
	minRuns:    100, setupReps: 2,
	lightRate: 300, busyRate: 1300, phaseWindow: time.Second,
	satWindow: 16, checkpointEvery: 50,
	restartAdmissions: 60, restartPending: 40, minRestarts: 2,
	shadowEvery: 4,
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkJSON reads the metric declarations of the repository's
// BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	index := func(ds []declared) map[string]string {
		m := make(map[string]string)
		for _, d := range ds {
			m[d.Name] = d.Unit
		}
		return m
	}
	return index(doc.EndToEnd), index(doc.PerLayer)
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestTinyRuns runs every workload at tiny sizes, untraced and traced, and
// checks each result line against BENCHMARK.json: every printed metric is
// declared with the printed unit, every declared metric is printed, and the
// run passes its correctness gate.
func TestTinyRuns(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	work := t.TempDir()
	for _, w := range workloads() {
		for _, traced := range []int{0, 1} {
			name := w.name + "/trace=" + strconv.Itoa(traced)
			t.Run(name, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{
					"--workload", w.name, "--seed", "7", "--seconds", "0.5", "--trace", strconv.Itoa(traced),
					"--work-dir", work,
				}
				if code := run(args, tinySizes, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := e2e
				if traced == 1 {
					want = layers
				}
				for n, m := range res.Metrics {
					unit, ok := want[n]
					if !ok {
						t.Errorf("printed metric %s is not declared", n)
					} else if unit != m.Unit {
						t.Errorf("metric %s printed in %s, declared in %s", n, m.Unit, unit)
					}
					if traced == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v", n, m.Value)
					}
				}
				for n := range want {
					if _, ok := res.Metrics[n]; !ok {
						t.Errorf("declared metric %s is not printed", n)
					}
				}
				if traced == 1 && w.name == "serve-warm-tcp" {
					if n := figureValue(t, stdout.String(), w.name, "journal.mid_run_checkpoints"); n <= 0 {
						t.Errorf("the traced serve run wrote %v mid-run checkpoints", n)
					}
				}
			})
		}
	}
}

// figureValue finds a named figure line in a run's output.
func figureValue(t *testing.T, out, workload, name string) float64 {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == workload && f[1] == name {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("no %s figure in:\n%s", name, out)
	return 0
}

// lyingSubstrate runs each instance for real and then tampers with the
// outcome it reports.
type lyingSubstrate struct {
	inner  service.Substrate
	tamper func(*service.Outcome)
}

func (l lyingSubstrate) Open(shard int) service.RunFunc {
	run := l.inner.Open(shard)
	return func(ctx context.Context, cfg core.Config) (service.Outcome, error) {
		out, err := run(ctx, cfg)
		if err == nil {
			l.tamper(&out)
		}
		return out, err
	}
}

func (l lyingSubstrate) Close(shard int) { l.inner.Close(shard) }

// serveThrough serves a short open-loop burst through a service whose
// substrate is wrapped by wrap, and returns the gate's verdict.
func serveThrough(t *testing.T, wrap func(service.Substrate) service.Substrate) *result {
	t.Helper()
	e := &runEnv{seed: 3, sz: tinySizes, dir: t.TempDir()}
	s, err := openService(filepath.Join(e.dir, "j"), e, nil, nil, wrap)
	if err != nil {
		t.Fatal(err)
	}
	r := newResult()
	smp := newSamples(1)
	rng := rand.New(rand.NewSource(1))
	recs := openLoop(s.svc, time.Now(), service.PoissonSchedule(1, 200, 200*time.Millisecond), rng, smp)
	tally(r, "burst", recs)
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	shadowCheck(r, smp.list())
	return r
}

func TestGateAcceptsHonestSubstrate(t *testing.T) {
	if r := serveThrough(t, nil); !r.ok() {
		t.Fatalf("honest run failed the gate: %v", r.problems)
	}
}

// TestGateTripsOnWrongDecision: every correct processor "decides" a value
// the batch never packed, so no value may count as served.
func TestGateTripsOnWrongDecision(t *testing.T) {
	r := serveThrough(t, func(sub service.Substrate) service.Substrate {
		return lyingSubstrate{inner: sub, tamper: func(o *service.Outcome) {
			wrong := make(map[ident.ProcID]sim.Decision, len(o.Decisions))
			for id, d := range o.Decisions {
				wrong[id] = sim.Decision{Value: d.Value + 1, Decided: d.Decided}
			}
			o.Decisions = wrong
		}}
	})
	if r.ok() || r.failed == 0 {
		t.Fatalf("a substrate deciding the wrong value passed the gate (failed %d)", r.failed)
	}
}

// TestGateTripsOnMiscountedRun: the decision is right but the reported
// message count is not what a serial core.Run produces.
func TestGateTripsOnMiscountedRun(t *testing.T) {
	r := serveThrough(t, func(sub service.Substrate) service.Substrate {
		return lyingSubstrate{inner: sub, tamper: func(o *service.Outcome) { o.Report.MessagesCorrect++ }}
	})
	if r.ok() {
		t.Fatal("a substrate miscounting messages passed the shadow re-execution")
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := pct(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := midMean(xs); got != 50 {
		t.Errorf("interquartile mean of 1..100 = %v, want 50", got)
	}
	if !supports(100, 90) || supports(99, 90) || supports(1000, 99.5) {
		t.Error("supports disagrees with the ten-beyond rule")
	}
}
