// Command perfbench is byzex's benchmark: agreement runs, served values and
// crash restarts, timed end to end and, in a separate traced run, layer by
// layer. It runs one workload per invocation and prints, as its last line,
// one JSON object with the correctness verdict and the metrics:
//
//	perfbench --workload alg5-n1024 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs twice, untraced then traced (half the seconds each), and
// the metrics are the per-layer ones. The command exits 1 when any output
// fails the correctness gate. See README.md for the workloads, the metrics
// and how to read a traced run's spans.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"byzex/internal/core"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg5"
)

// maxMeasure caps any workload's measuring loop, whatever its minimum
// sample count asks for, so a run always ends well inside three minutes.
const maxMeasure = 100 * time.Second

// sizes are the workloads' input sizes; the tests run a tiny set.
type sizes struct {
	alg5N, alg5T int
	alg2N, alg2T int
	alg2Faults   string
	minRuns      int // untraced agreement runs per invocation, at least
	setupReps    int // set-ups per invocation; setup_s is their interquartile mean

	lightRate, busyRate float64       // open-loop arrivals per second
	phaseWindow         time.Duration // length of one light, busy or sat window
	satWindow           int           // outstanding submissions in the saturation phase
	checkpointEvery     int           // journaled admissions between mid-run checkpoints

	restartAdmissions, restartPending int
	minRestarts                       int

	shadowEvery int // re-execute every instance whose id is a multiple of this
}

var fullSizes = sizes{
	alg5N: 1024, alg5T: 3,
	alg2N: 33, alg2T: 16,
	alg2Faults: "crash=1@2;drop=2->*@2-20/0.5;dup=3->*@1-30;delay=4->*@1-10+1;reorder=5->*@*",
	minRuns:    100, setupReps: 25,
	lightRate: 1000, busyRate: 2000, phaseWindow: time.Second, satWindow: 64, checkpointEvery: 5000,
	restartAdmissions: 3000, restartPending: 2000, minRestarts: 3,
	shadowEvery: 64,
}

// runEnv is what a workload run gets.
type runEnv struct {
	seed   int64
	dur    time.Duration
	traced bool
	sz     sizes
	dir    string   // scratch directory for journals, removed afterwards
	log    *spanLog // nil unless traced
}

// workload is one benchmark workload; why each exists is in BENCHMARK.json
// and README.md.
type workload struct {
	name string
	run  func(e *runEnv) (*result, error)
}

func workloads() []workload {
	return []workload{
		{"alg5-n1024", func(e *runEnv) (*result, error) {
			n, t := e.sz.alg5N, e.sz.alg5T
			return runAgreement(e, agreeSpec{proto: alg5.Protocol{S: t}, n: n, t: t, msgBound: core.Alg5MsgUpperBound(n, t, t)})
		}},
		{"alg2-ed25519-faults", func(e *runEnv) (*result, error) {
			n, t := e.sz.alg2N, e.sz.alg2T
			return runAgreement(e, agreeSpec{proto: alg2.Protocol{}, n: n, t: t, ed25519: true, faults: e.sz.alg2Faults, msgBound: core.Alg2MsgUpperBound(t)})
		}},
		{"serve-warm-tcp", runServe},
		{"restart-replay", runRestart},
	}
}

func main() {
	os.Exit(run(os.Args[1:], fullSizes, os.Stdout, os.Stderr))
}

// run parses the command line, runs the workload at sizes sz and reports;
// it returns the exit code.
func run(args []string, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(names, "|"))
		seed    = fs.Int64("seed", 1, "seed for every generated input")
		seconds = fs.Float64("seconds", 25, "measuring time")
		traced  = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		workDir = fs.String("work-dir", ".bench_build", "directory for the run's journals (removed afterwards) and a traced run's spans/")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	stamp, err := environment(dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env := &runEnv{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), sz: sz, dir: dir}
	spans := filepath.Join(*workDir, "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
	steal0, total0 := hostTicks()
	res, err := execute(w, env, *traced == 1, spans)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	steal1, total1 := hostTicks()
	stamp["host_steal_frac"] = ratio(float64(steal1-steal0), float64(total1-total0))
	return report(stdout, stderr, w.name, stamp, res, *traced == 1)
}

// execute runs the workload once untraced, or, for a traced run, untraced
// and then traced for half the time each, and derives the tracing overhead
// and the attribution check from the pair.
func execute(w *workload, env *runEnv, traced bool, spansPath string) (*result, error) {
	if !traced {
		return w.run(env)
	}
	half := *env
	half.dur = env.dur / 2
	half.dir = filepath.Join(env.dir, "untraced")
	base, err := w.run(&half)
	if err != nil {
		return nil, err
	}
	tr := half
	tr.traced = true
	tr.dir = filepath.Join(env.dir, "traced")
	tr.log = newSpanLog()
	res, err := w.run(&tr)
	if err != nil {
		return nil, err
	}
	res.merge(base)
	res.set("bench.trace_overhead_frac", ratio(res.values["lat_ms_p50"], base.values["lat_ms_p50"])-1)
	if u := res.values["bench.unattributed_frac"]; u > unattributedBound {
		res.fail("spans leave %.3f of the traced intervals unattributed (bound %.2f)", u, unattributedBound)
	}
	if err := tr.log.write(spansPath); err != nil {
		return nil, err
	}
	res.figure("spans", float64(len(tr.log.spans)), "count", 0)
	return res, nil
}

// report prints the environment stamp, the workload's named figures and the
// result line, and returns the exit code.
func report(stdout, stderr io.Writer, name string, stamp map[string]any, res *result, traced bool) int {
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	envLine, _ := json.Marshal(stamp)
	fmt.Fprintf(out, "env %s\n", envLine)
	fmt.Fprint(out, res.figureLines(name))
	fmt.Fprintf(out, "%s failed_frac %.6g ratio (%d of %d)\n", name, ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)

	declared := endToEnd
	if traced {
		declared = perLayer
	}
	metrics := make(map[string]any, len(declared))
	for _, m := range declared {
		v, ok := res.values[m.name]
		switch {
		case !ok && !traced:
			res.fail("metric %s was not measured", m.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.fail("metric %s is %v", m.name, v)
			v = 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		fmt.Fprintf(out, "%s %s %.6g %s\n", name, m.name, v, m.unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: FAIL %s\n", name, p)
	}
	attempted := max(res.attempted, 1)
	line, err := json.Marshal(map[string]any{
		"correct": res.ok(), "attempted": attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.ok() {
		return 1
	}
	return 0
}

// environment stamps a result with what it ran on, including a raw fsync
// probe of the journal directory's disk. run adds the share of the
// machine's CPU time the hypervisor stole while the workload ran.
func environment(dir string) (map[string]any, error) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	p50, p90, err := fsyncProbe(dir)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "cpu": cpu, "fsync_us_p50": p50, "fsync_us_p90": p90,
	}, nil
}

// fsyncProbe times 200 small write+fsync pairs on a file in dir.
func fsyncProbe(dir string) (p50, p90 float64, err error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	lat := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, 0, err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	return pct(lat, 50), pct(lat, 90), nil
}

// hostTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat; steal is time the hypervisor ran someone else on our CPUs.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseUint(x, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
