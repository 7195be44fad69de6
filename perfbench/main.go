// Command perfbench is the repository's benchmark: one trust service
// (server.Serve over a core.System, in process) driven through
// authenticated server.Client sessions by one of three workloads, with
// every answer checked.
//
//	perfbench --workload authz-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run attaches no observability bundle and prints the
// end-to-end metrics. With --trace 1 it runs the workload twice on the
// same seed, untraced and then traced, and prints the per-layer ledger;
// the spans are written to <out>/trace/. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Everything else goes to standard error. See WORKLOADS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// An end-to-end run builds its workload at least minSetups times and
// until setupBudget is spent, at most maxSetups times; setup_s is the
// median.
const (
	minSetups   = 5
	maxSetups   = 9
	setupBudget = time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: authz-read, credential-sync or revoke-churn")
	seed := fs.Int64("seed", 1, "seed for every generated key, order and choice")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer ledger from a traced run")
	out := fs.String("out", ".bench_build", "directory for durable stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		tmp:    tmp,
	}
	var res result
	if *trace == 0 {
		res, err = runE2E(setup, cfg, stderr)
	} else {
		res, _, err = runTraced(*name, setup, cfg, *out, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			res.Metrics[k] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// runE2E sets the workload up several times (timing each), measures the
// last set-up system untraced, and checks every answer. Times are scaled
// to the reference speed by the calibration kernel's cost in the
// measured window (see calib.go), set-up times too; standard error also
// prints them as measured.
func runE2E(setup setupFunc, cfg config, stderr io.Writer) (result, error) {
	var times []float64
	var w workload
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = setup(cfg); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	defer w.close()
	heap := liveHeapMB()
	rec := newRecorder()
	w.measure(rec)
	w.check(rec)
	m := w.e2e(rec)
	times = append(times, rec.setups...)
	m["setup_s"] = metric{median(times) * rec.scale(), "s"}
	m["heap_live_mb"] = metric{heap, "MB"}
	printAliases(stderr, w, rec)
	fmt.Fprintf(stderr, "perfbench: calibration kernel %.1fus over %d runs, reference %.0fus: measured times scaled by %.4f\n",
		us(kernelRef)/rec.scale(), len(rec.kernel), us(kernelRef), rec.scale())
	fmt.Fprintf(stderr, "perfbench: setups %v s as measured; %d ops attempted, %d failed\n", times, rec.attempted, rec.failed)
	return result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: m}, nil
}

// liveHeapMB is the live heap after a full collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// printAliases prints each op type's sample count, mean and pooled
// quantiles, and the workload's end-to-end numbers under the names the
// op types give them (msgs_per_s, retract_p50_ms, ...), on standard
// error.
func printAliases(stderr io.Writer, w workload, rec *recorder) {
	for _, kind := range []string{opQuery, opSay, opSync, opAssert, opRetract, opBatch} {
		if n := rec.count(kind); n > 0 {
			fmt.Fprintf(stderr, "e2e %-8s n=%-7d mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus\n", kind, n,
				us(rec.mean(kind)), us(rec.quantile(kind, .5)), us(rec.quantile(kind, .9)), us(rec.quantile(kind, .99)))
		}
	}
	for _, a := range w.aliases(rec) {
		fmt.Fprintf(stderr, "e2e %s = %.6g %s\n", a.name, a.Value, a.Unit)
	}
	if rec.attempted > 0 {
		fmt.Fprintf(stderr, "e2e ops_failed_ratio = %.6g\n", float64(rec.failed)/float64(rec.attempted))
	}
}
