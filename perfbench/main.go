// Command perfbench is the repository benchmark. It runs one workload against
// the CORD reproduction, checks every output the program produces, and prints
// the metrics; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. Run it from the repository
// root through perfbench/run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload detect --seed 1 --seconds 20 --trace 0
//
// Workloads (README.md gives the reason for each):
//
//	figures  the campaigns behind the 12 committed bench/BENCH_*.json goldens
//	detect   a closed loop of POST /v1/detect against an in-process cordd
//	stream   a closed loop of POST /v1/stream: ingest, duty0 and online phases
//
// With --trace 0 a run reports the end-to-end metrics setup_s, p50_ms,
// tail_ms and ops_per_s of its workload. With --trace 1 it instead re-executes
// a deterministic sample of every workload's run configurations under timing
// decorators and reports the per-layer metrics (traced.go). With --steady N it
// runs every named workload N times on seeds 1..N in child processes and
// prints each metric's median and interquartile spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"cord/internal/experiment"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// env is what a workload runs against.
type env struct {
	seed    uint64
	seconds time.Duration
	in      *inputs
	svc     *service
	goldens map[string]experiment.Artifact
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects a run's operations, metrics and printed values.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	lines             []string
	errs              []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// metric records a metric of the final JSON line (and prints it).
func (o *outcome) metric(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
	o.note(name, v, unit)
}

// note prints a named value ahead of the JSON line.
func (o *outcome) note(name string, v float64, unit string) {
	o.lines = append(o.lines, fmt.Sprintf("%-40s %16.6f %s", name, v, unit))
}

// check counts one operation, failed unless ok; the message describes it.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.errs) < 20 {
			o.errs = append(o.errs, fmt.Sprintf(format, args...))
		}
	}
}

// count adds a batch of operations with their failures.
func (o *outcome) count(attempted, failed int, firstErr error) {
	o.attempted += attempted
	o.failed += failed
	if failed > 0 && firstErr != nil && len(o.errs) < 20 {
		o.errs = append(o.errs, firstErr.Error())
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"figures": runFigures,
	"detect":  runDetect,
	"stream":  runStream,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload: figures, detect or stream (with --steady: a comma list, or all)")
		seed      = fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
		seconds   = fs.Int("seconds", 20, "measured time of one run")
		traceFl   = fs.Int("trace", 0, "1: report per-layer metrics from a traced re-execution instead")
		steady    = fs.Int("steady", 0, "run each workload this many times on seeds 1..N and report medians and spreads")
		goldenDir = fs.String("goldens", "bench", "directory of the committed BENCH_*.json goldens")
		traceOut  = fs.String("trace-out", ".bench_build/perfbench-trace.jsonl", "with --trace 1: write the spans here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steady > 0 {
		return steadiness(*name, *steady, *seconds, *traceFl, stdout, stderr)
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFl != 0 && *traceFl != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload figures|detect|stream, --seconds >= 1 and --trace 0|1")
		return 2
	}
	base := runtime.NumGoroutine()
	e, setupS, sameInputs, err := prepare(*seed, *goldenDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	e.seconds = time.Duration(*seconds) * time.Second
	var out *outcome
	if *traceFl == 1 {
		out, err = traced(e, *traceOut)
	} else {
		out, err = wl(e)
	}
	if err != nil {
		e.svc.close()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out.check(sameInputs, "set-up: repeated set-ups generated different inputs from one seed")
	serr := e.svc.close()
	out.check(serr == nil, "Server.Shutdown: %v", serr)
	out.check(settled(base), "goroutines: %d still running, %d before the workload", runtime.NumGoroutine(), base)
	if *traceFl == 0 {
		out.metric("setup_s", setupS, "s")
		out.note("failed_frac", ratio(float64(out.failed), float64(out.attempted)), "frac")
	}

	for _, l := range out.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, msg := range out.errs {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", msg)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// prepare sets up setupReps times — generating every input, recording the
// online logs, loading the goldens and starting the server — and keeps the
// last set-up. It returns the median set-up time and whether every
// repetition generated identical inputs.
func prepare(seed uint64, goldenDir string) (*env, float64, bool, error) {
	var (
		e       *env
		times   []float64
		digests = map[string]bool{}
	)
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.svc.close(); err != nil {
				return nil, 0, false, err
			}
		}
		t0 := time.Now()
		in, err := buildInputs(seed, fullSizes)
		if err != nil {
			return nil, 0, false, err
		}
		g, err := loadGoldens(goldenDir)
		if err != nil {
			return nil, 0, false, err
		}
		e = &env{seed: seed, in: in, goldens: g, svc: startService()}
		times = append(times, time.Since(t0).Seconds())
		digests[in.digest()] = true
	}
	return e, percentile(times, 0.5), len(digests) == 1, nil
}

// workloadList expands a comma list of workload names ("all": every one).
func workloadList(spec string) ([]string, error) {
	if spec == "all" || spec == "" {
		return []string{"figures", "detect", "stream"}, nil
	}
	names := strings.Split(spec, ",")
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return names, nil
}
