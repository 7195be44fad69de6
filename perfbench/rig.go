package main

import (
	"fmt"
	"os"
	"time"

	"lbtrust/internal/core"
	"lbtrust/internal/obs"
	"lbtrust/internal/server"
)

// config is what a workload is built from.
type config struct {
	seed   int64
	window time.Duration // the measured window
	// maxOps, when positive, also ends each session's loop after that
	// many ops, so tiny runs issue a fixed op sequence.
	maxOps int
	// tiny selects the self-test sizes.
	tiny bool
	// obs is attached to the server (and through it the whole system) on
	// traced runs; nil on end-to-end runs.
	obs *obs.Obs
	tmp string // parent directory for durable stores
}

// span starts a benchmark span on traced runs (nil, a no-op, otherwise).
func (c config) span(trace obs.TraceID, parent, name string) *obs.ActiveSpan {
	if c.obs == nil {
		return nil
	}
	if trace == "" {
		trace = obs.NewTraceID()
	}
	return c.obs.Tracer.StartSpan(trace, parent, name, "")
}

// setupFunc builds a workload's system, loads its policy and data, starts
// the server and authenticates the sessions: everything before timing.
type setupFunc func(cfg config) (workload, error)

// workload is one set-up traffic mix.
type workload interface {
	// measure runs the timed window through the client sessions.
	measure(rec *recorder)
	// check runs the end-of-run oracles, counting each mismatch as a
	// failed op.
	check(rec *recorder)
	// e2e returns the end-to-end metrics except setup_s and heap_live_mb.
	e2e(rec *recorder) map[string]metric
	// aliases names the workload's numbers by op type (msgs_per_s, ...).
	aliases(rec *recorder) []alias
	// primary is the op kind the workload is defined by.
	primary() string
	// base exposes the served system for the traced run's layer calls.
	base() *rig
	// twin replays the run's writes on a metered twin workspace (traced
	// runs); workloads without base-fact writes do nothing.
	twin(l *ledger)
	close()
}

type alias struct {
	name string
	metric
}

var workloads = map[string]setupFunc{
	"authz-read":      setupAuthz,
	"credential-sync": setupCredSync,
	"revoke-churn":    setupChurn,
}

// rig is the served system a workload drives.
type rig struct {
	cfg      config
	sys      *core.System
	srv      *server.Server
	sessions []*server.Client
	reader   *core.Principal // answers the workload's queries
	signer   string          // principal whose RSA key the crypto layer calls use
	dir      string          // durable store, "" when in memory
	// statements are batch-shaped clause texts of the workload, signed
	// and verified by the crypto layer calls.
	statements []string
}

// serve starts the server and authenticates one session per name, then
// publishes the reader's first snapshot.
func (r *rig) serve(names ...string) error {
	srv, err := server.Serve(r.sys, "127.0.0.1:0", server.Options{Obs: r.cfg.obs})
	if err != nil {
		return err
	}
	r.srv = srv
	for _, n := range names {
		c, err := server.Dial(srv.Addr())
		if err != nil {
			return err
		}
		r.sessions = append(r.sessions, c)
		p, ok := r.sys.Principal(n)
		if !ok {
			return fmt.Errorf("no principal %q", n)
		}
		if err := c.Authenticate(n, p.Keys()); err != nil {
			return fmt.Errorf("authenticating %s: %w", n, err)
		}
	}
	r.reader.Workspace().Snapshot()
	return nil
}

func (r *rig) base() *rig { return r }

func (r *rig) close() {
	for _, c := range r.sessions {
		c.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.sys != nil {
		r.sys.Close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// durableDir makes a fresh store directory for one setup.
func (r *rig) durableDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(r.cfg.tmp, prefix)
	r.dir = dir
	return dir, err
}

// more reports whether a session loop may issue another op: the window
// has not closed and the op budget (if any) is not spent.
func (r *rig) more(deadline time.Time, issued int) bool {
	if r.cfg.maxOps > 0 && issued >= r.cfg.maxOps {
		return false
	}
	return time.Now().Before(deadline)
}

// timed issues one client op, wrapped in an op span on traced runs, and
// records its latency from due (from the send when due is zero), or its
// failure. fn returns an error for failed, refused and wrong-answer ops.
func (r *rig) timed(rec *recorder, kind, text string, due time.Time, fn func() error) bool {
	span := r.cfg.span("", "", "op."+kind)
	t0 := time.Now()
	if due.IsZero() {
		due = t0
	}
	err := fn()
	d := time.Since(due)
	span.End()
	if err != nil {
		rec.fail(kind, text, err)
		return false
	}
	rec.ok(kind, d)
	return true
}

// rate is n over the recorder's measured window, per second.
func rate(n int, rec *recorder) float64 {
	if rec.elapsed <= 0 {
		return 0
	}
	return float64(n) / rec.elapsed.Seconds()
}

// queryMetrics are the read-side end-to-end metrics every workload has.
func queryMetrics(rec *recorder) map[string]metric {
	return map[string]metric{
		"query_mean_us": {us(rec.wMean(opQuery)), "us"},
	}
}

// opMetrics adds the end-to-end metrics of the workload's defining op;
// perOp scales its rate (messages per batch).
func opMetrics(m map[string]metric, rec *recorder, kind string, perOp float64) map[string]metric {
	m["op_per_s"] = metric{perOp * rec.wRate(kind), "1/s"}
	m["op_mean_ms"] = metric{ms(rec.wMean(kind)), "ms"}
	return m
}
