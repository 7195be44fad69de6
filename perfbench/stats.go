package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Op kinds a workload issues through client sessions. A batch is the
// credential-sync unit: 100 says, one sync and the receiver's batch read.
const (
	opQuery   = "query"
	opSay     = "say"
	opSync    = "sync"
	opAssert  = "assert"
	opRetract = "retract"
	opBatch   = "batch"
)

// maxReported bounds how many failures are printed one per line; the
// rest are counted.
const maxReported = 20

// subwindows is how many equal stretches of measured time the
// end-to-end metrics are computed over; each reports the median across
// them, so a burst of interference from outside the process (CPU steal
// on a shared host) moves it less.
const subwindows = 9

// sample is one op's latency and when, in measured time since the
// window opened, it ended.
type sample struct {
	at, d time.Duration
}

// recorder collects per-op latencies and failures from the workload's
// sessions. Safe for concurrent use.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]sample
	attempted int64
	failed    int64
	reported  int
	texts     []string // query texts in issue order (repeat ratio, layer replay)
	late      []time.Duration
	start     time.Time     // when the window opened
	excluded  time.Duration // untimed stretches inside the window
	elapsed   time.Duration // measured time
	// setups holds set-up times of systems rebuilt between rounds.
	setups []float64
	// kernel holds the calibration kernel's costs measured in the run.
	kernel []time.Duration
	// alloc and gcs are heap bytes allocated and GC cycles completed
	// over the measured stretches, when onBegin and onEnd count them.
	alloc, gcs uint64
	// onBegin and onEnd, when set, bracket each stretch of measured
	// time (the traced run reads the program's counters there).
	onBegin, onEnd func(*rig)
}

// begin and end bracket a stretch of measured time on r.
func (r *recorder) begin(g *rig) {
	if r.onBegin != nil {
		r.onBegin(g)
	}
}

func (r *recorder) end(g *rig) {
	if r.onEnd != nil {
		r.onEnd(g)
	}
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]sample{}, start: time.Now()}
}

// exclude removes an untimed stretch (a set-up between rounds) from the
// measured timeline.
func (r *recorder) exclude(d time.Duration) {
	r.mu.Lock()
	r.excluded += d
	r.mu.Unlock()
}

// calibrate runs the calibration kernel n times, records its costs and
// returns the wall time spent, which a caller inside the measured window
// excludes.
func (r *recorder) calibrate(n int) time.Duration {
	t0 := time.Now()
	costs := make([]time.Duration, n)
	for i := range costs {
		costs[i] = kernelCost()
	}
	r.mu.Lock()
	r.kernel = append(r.kernel, costs...)
	r.mu.Unlock()
	return time.Since(t0)
}

// scale converts the run's times to the reference speed: kernelRef over
// the kernel's mean cost in the run (1 when it was not measured).
func (r *recorder) scale() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.kernel) == 0 {
		return 1
	}
	return float64(kernelRef) / float64(meanDur(r.kernel))
}

// add records a latency; the caller holds r.mu.
func (r *recorder) add(kind string, d time.Duration) {
	r.lat[kind] = append(r.lat[kind], sample{time.Since(r.start) - r.excluded, d})
}

// ok records a successful op of the given kind.
func (r *recorder) ok(kind string, d time.Duration) {
	r.mu.Lock()
	r.attempted++
	r.add(kind, d)
	r.mu.Unlock()
}

// fail records a failed, refused or wrong-answer op and reports it on
// standard error with its op and reason.
func (r *recorder) fail(kind, op string, reason error) {
	r.mu.Lock()
	r.attempted++
	r.failed++
	n := r.failed
	report := r.reported < maxReported
	if report {
		r.reported++
	}
	r.mu.Unlock()
	if report {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s %q: %v\n", kind, op, reason)
	} else if n == maxReported+1 {
		fmt.Fprintf(os.Stderr, "perfbench: further failures are counted, not printed\n")
	}
}

// sample records a composite op's latency (a batch) without counting
// it as an attempted op: its parts were counted.
func (r *recorder) sample(kind string, d time.Duration) {
	r.mu.Lock()
	r.add(kind, d)
	r.mu.Unlock()
}

// text remembers a query text in issue order.
func (r *recorder) text(s string) {
	r.mu.Lock()
	r.texts = append(r.texts, s)
	r.mu.Unlock()
}

// dropTexts forgets the query texts so far: they name data of a system
// that was replaced.
func (r *recorder) dropTexts() {
	r.mu.Lock()
	r.texts = nil
	r.mu.Unlock()
}

// lateBy records how late the open-loop generator sent an op.
func (r *recorder) lateBy(d time.Duration) {
	r.mu.Lock()
	r.late = append(r.late, d)
	r.mu.Unlock()
}

func (r *recorder) count(kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lat[kind])
}

// durations returns kind's latencies.
func (r *recorder) durations(kind string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]time.Duration, len(r.lat[kind]))
	for i, s := range r.lat[kind] {
		out[i] = s.d
	}
	return out
}

// quantile returns the q-quantile (0..1) of kind's latencies by nearest
// rank, or 0 when none were recorded.
func (r *recorder) quantile(kind string, q float64) time.Duration {
	return quantile(r.durations(kind), q)
}

// mean returns the mean latency of kind, or 0.
func (r *recorder) mean(kind string) time.Duration {
	return meanDur(r.durations(kind))
}

// windows splits kind's latencies by sub-window of the measured time.
func (r *recorder) windows(kind string) [subwindows][]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [subwindows][]time.Duration
	w := r.elapsed / subwindows
	for _, s := range r.lat[kind] {
		i := 0
		if w > 0 {
			i = min(max(int(s.at/w), 0), subwindows-1)
		}
		out[i] = append(out[i], s.d)
	}
	return out
}

// wMean is the median over sub-windows of each one's mean latency
// (sub-windows without ops of kind have none and are skipped), at the
// reference speed. A mean moves in proportion when a share of ops runs
// slower, where a quantile can jump between the modes of a latency
// distribution with two peaks.
func (r *recorder) wMean(kind string) time.Duration {
	var vs []float64
	for _, xs := range r.windows(kind) {
		if len(xs) > 0 {
			vs = append(vs, float64(meanDur(xs)))
		}
	}
	return time.Duration(median(vs) * r.scale())
}

// wRate is the median over sub-windows of kind's ops per second, at the
// reference speed.
func (r *recorder) wRate(kind string) float64 {
	w := (r.elapsed / subwindows).Seconds()
	if w <= 0 {
		return 0
	}
	var vs []float64
	for _, xs := range r.windows(kind) {
		vs = append(vs, float64(len(xs))/w)
	}
	return median(vs) / r.scale()
}

// repeatRatio is the share of query texts that repeat an earlier text.
func (r *recorder) repeatRatio() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.texts) == 0 {
		return 0
	}
	seen := map[string]struct{}{}
	for _, t := range r.texts {
		seen[t] = struct{}{}
	}
	return 1 - float64(len(seen))/float64(len(r.texts))
}

func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
