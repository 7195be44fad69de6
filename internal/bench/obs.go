// Observability-overhead benchmark: the serve workload run twice — once
// with no observability attached (every instrumentation site takes its
// nil branch) and once with the full production bundle (metrics
// registry, info-level structured logging, span tracer) — to measure
// what always-on telemetry costs. The acceptance bar is <5% median
// throughput overhead.
package bench

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"time"

	"lbtrust/internal/obs"
	"lbtrust/internal/server"
)

// ObsOptions configures RunObs.
type ObsOptions struct {
	// Base is the number of loaded facts in the served workspace.
	Base int
	// PerClient is the number of queries each client issues per round.
	PerClient int
	// Clients is the session concurrency of each round.
	Clients int
	// Rounds is how many times each arm is measured (alternating, so
	// machine drift hits both arms equally); the median is reported.
	Rounds int
}

// ObsArm is one measured configuration.
type ObsArm struct {
	Mode      string    // "nil" or "instrumented"
	QPS       []float64 // per round
	MedianQPS float64
	P50       time.Duration // from the median-QPS round
	P99       time.Duration
}

// ObsResult is the full obs experiment output.
type ObsResult struct {
	Base      int
	PerClient int
	Clients   int
	Rounds    int
	Nil       ObsArm
	Obs       ObsArm
	// OverheadPct is the median over rounds of the paired per-round
	// throughput loss (nil_i - instrumented_i) / nil_i * 100: positive
	// means instrumentation cost throughput. Pairing rounds (each
	// instrumented round runs back to back with its nil partner)
	// cancels machine drift that a cross-arm median comparison would
	// book as instrumentation cost.
	OverheadPct float64
}

// obsBundle is the production configuration the overhead claim is about:
// metrics on, spans on, logging armed at info level (so per-request
// debug lines take the level check but are not rendered).
func obsBundle() *obs.Obs {
	return &obs.Obs{
		Registry: obs.NewRegistry(),
		Log:      slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		Tracer:   obs.NewTracer(4096),
	}
}

// runObsArm measures one round of one arm on a fresh system.
func runObsArm(opts ObsOptions, o *obs.Obs) (ServePoint, error) {
	sys, srv, err := serveSystem(opts.Base, server.Options{Obs: o})
	if err != nil {
		return ServePoint{}, err
	}
	defer func() {
		srv.Close()
		sys.Close()
	}()
	return runServePoint(sys, srv, opts.Clients, opts.PerClient, opts.Base, 0)
}

// RunObs measures instrumented-vs-nil serve throughput. Rounds
// alternate arms back to back so thermal or scheduler drift cannot be
// mistaken for instrumentation cost.
func RunObs(opts ObsOptions) (*ObsResult, error) {
	if opts.Base <= 0 {
		opts.Base = 10000
	}
	if opts.PerClient <= 0 {
		opts.PerClient = 400
	}
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 5
	}
	res := &ObsResult{
		Base: opts.Base, PerClient: opts.PerClient,
		Clients: opts.Clients, Rounds: opts.Rounds,
		Nil: ObsArm{Mode: "nil"}, Obs: ObsArm{Mode: "instrumented"},
	}
	type round struct {
		arm *ObsArm
		o   *obs.Obs
	}
	for i := 0; i < opts.Rounds; i++ {
		for _, r := range []round{{&res.Nil, nil}, {&res.Obs, obsBundle()}} {
			pt, err := runObsArm(opts, r.o)
			if err != nil {
				return nil, fmt.Errorf("bench: obs arm %s round %d: %w", r.arm.Mode, i, err)
			}
			r.arm.QPS = append(r.arm.QPS, pt.QPS)
			if r.arm.MedianQPS == 0 || nearerMedian(r.arm.QPS, pt.QPS, r.arm.MedianQPS) {
				r.arm.P50, r.arm.P99 = pt.P50, pt.P99
			}
			r.arm.MedianQPS = median(r.arm.QPS)
			// The instrumented arm must actually have instrumented: a
			// wiring regression that silently dropped the bundle would
			// otherwise report a flattering 0% overhead forever.
			if r.o != nil && countRequests(r.o) == 0 {
				return nil, fmt.Errorf("bench: instrumented arm recorded no requests")
			}
		}
	}
	var ratios []float64
	for i := range res.Nil.QPS {
		if res.Nil.QPS[i] > 0 {
			ratios = append(ratios, (res.Nil.QPS[i]-res.Obs.QPS[i])/res.Nil.QPS[i]*100)
		}
	}
	res.OverheadPct = median(ratios)
	return res, nil
}

// countRequests sums lb_server_requests_total across verbs by scraping
// the registry's own exposition — the same surface operators read.
func countRequests(o *obs.Obs) int64 {
	var buf bytes.Buffer
	o.Registry.WritePrometheus(&buf)
	var total int64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "lb_server_requests_total{") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			var v int64
			if _, err := fmt.Sscanf(line[i+1:], "%d", &v); err == nil {
				total += v
			}
		}
	}
	return total
}

// median of a copy of xs.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// nearerMedian reports whether x is closer to the running median than
// the previously chosen representative round.
func nearerMedian(xs []float64, x, prev float64) bool {
	m := median(xs)
	d := x - m
	if d < 0 {
		d = -d
	}
	pd := prev - m
	if pd < 0 {
		pd = -pd
	}
	return d <= pd
}
