package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"lbtrust/internal/datalog"
	"lbtrust/internal/obs"
	"lbtrust/internal/workspace"
)

const (
	// tracedOpCap bounds each session's ops in a traced run, so the span
	// ring (spanCap) holds every span the run makes.
	tracedOpCap = 20000
	spanCap     = 1 << 17
	// layerTexts bounds the query texts replayed through the direct
	// layer calls.
	layerTexts = 2000
)

// ledger gathers one traced run's per-layer numbers.
type ledger struct {
	o       *obs.Obs
	m       map[string]metric // the result line's per-layer metrics
	info    []alias           // ledger-only numbers (printed, written out)
	notes   []string
	updGas  map[string][]int64
	updDer  map[string][]int64
	updTime map[string][]time.Duration
}

func newLedger(o *obs.Obs) *ledger {
	return &ledger{o: o, m: map[string]metric{},
		updGas: map[string][]int64{}, updDer: map[string][]int64{}, updTime: map[string][]time.Duration{}}
}

func (l *ledger) note(format string, args ...any) {
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// update records one metered-twin flush.
func (l *ledger) update(kind string, st workspace.EvalStats, d time.Duration) {
	l.updGas[kind] = append(l.updGas[kind], st.Gas)
	l.updDer[kind] = append(l.updDer[kind], st.Derived)
	l.updTime[kind] = append(l.updTime[kind], d)
}

func (l *ledger) set(name, unit string, v float64) { l.m[name] = metric{v, unit} }
func (l *ledger) add(name, unit string, v float64) {
	l.info = append(l.info, alias{name, metric{v, unit}})
}

// counters is a reading of the program's own counters and histograms.
type counters map[string]float64

// histograms and counters read from the registry, by ledger key.
var (
	regHists = map[string][]string{
		"req.query":   {"lb_server_request_seconds", "verb", "query"},
		"req.say":     {"lb_server_request_seconds", "verb", "say"},
		"req.sync":    {"lb_server_request_seconds", "verb", "sync"},
		"req.assert":  {"lb_server_request_seconds", "verb", "assert"},
		"req.retract": {"lb_server_request_seconds", "verb", "retract"},
		"flush":       {"lb_workspace_flush_seconds"},
		"publish":     {"lb_workspace_snapshot_publish_seconds"},
		"distsync":    {"lb_dist_sync_seconds"},
		"walcommit":   {"lb_store_wal_commit_seconds"},
		"fsync":       {"lb_store_wal_fsync_seconds"},
	}
	regCounters = map[string][]string{
		"eval.full":     {"lb_eval_runs_total", "mode", "full"},
		"eval.delta":    {"lb_eval_runs_total", "mode", "delta"},
		"check.incr":    {"lb_workspace_constraint_checks_total", "path", "incremental"},
		"check.full":    {"lb_workspace_constraint_checks_total", "path", "full"},
		"check.skipped": {"lb_workspace_constraint_checks_total", "path", "skipped"},
		"cloned":        {"lb_workspace_snapshot_relations_cloned_total"},
		"walbytes":      {"lb_store_wal_append_bytes_total"},
		"walcommits":    {"lb_store_wal_commits_total"},
	}
)

// read takes a reading of the registry and of Server.Stats (which
// carries System.Stats).
func (l *ledger) read(r *rig) counters {
	reg := l.o.Registry
	c := counters{}
	for k, spec := range regHists {
		h := reg.Histogram(spec[0], "", spec[1:]...)
		c[k+".n"] = float64(h.Count())
		c[k+".sum"] = h.Sum().Seconds()
	}
	for k, spec := range regCounters {
		c[k] = float64(reg.Counter(spec[0], "", spec[1:]...).Value())
	}
	st := r.srv.Stats()
	c["refused"] = float64(st.Refused)
	c["overloaded"] = float64(st.Overloaded)
	c["limit"] = float64(st.LimitTripped)
	c["writes"] = float64(st.Writes)
	d := st.Dist
	c["delivered"] = float64(d.TuplesDelivered())
	c["rejected"] = float64(d.TuplesRejected())
	c["scanned"] = float64(d.ScannedTuples)
	c["suppressed"] = float64(d.SuppressedTuples)
	c["sendfail"] = float64(d.SendFailures)
	t := d.Totals()
	c["wiremsgs"] = float64(t.MessagesSent)
	c["wirebytes"] = float64(t.BytesSent)
	return c
}

// delta is after minus before.
func delta(before, after counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// meanSec is a histogram's mean observation over the window, in seconds.
func (d counters) meanSec(key string) float64 { return ratio(d[key+".sum"], d[key+".n"]) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overheadPairs is how many untraced/traced round pairs estimate what
// tracing costs.
const overheadPairs = 3

// runTraced measures the workload on one seed in two halves of the
// window. The first half is overheadPairs pairs of short rounds, one
// untraced and one traced, each on a fresh set-up, alternating which
// goes first; they give obs.trace_overhead_pct and the untraced
// numbers (allocation, GC, generator lateness). The second half is one
// traced run that the per-layer ledger is read from.
func runTraced(name string, setup setupFunc, cfg config, out string, stderr io.Writer) (result, *ledger, error) {
	// The rounds run uncapped, so both arms carry the same load; the
	// traced run is capped so its span ring keeps every span.
	rcfg := cfg
	rcfg.window = cfg.window / (4 * overheadPairs)
	if cfg.maxOps == 0 {
		cfg.maxOps = tracedOpCap
	}
	var attempted, failed int64
	var plain, ratios []float64
	var late []time.Duration
	var alloc, gcs uint64
	var plainOps int64
	for p := 0; p < overheadPairs; p++ {
		var mean [2]float64 // untraced, traced
		for k := 0; k < 2; k++ {
			traced := (k == 0) == (p%2 == 1) // odd pairs run traced first
			var o *obs.Obs
			if traced {
				o = &obs.Obs{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(spanCap)}
			}
			rec, kind, err := round(setup, rcfg, o)
			if err != nil {
				return result{}, nil, err
			}
			attempted, failed = attempted+rec.attempted, failed+rec.failed
			// Each round's mean is scaled by its own calibration
			// (calib.go), so host drift between the rounds of a pair
			// does not read as tracing overhead.
			if traced {
				mean[1] = float64(rec.mean(kind)) * rec.scale()
				continue
			}
			mean[0] = float64(rec.mean(kind)) * rec.scale()
			plain = append(plain, mean[0])
			late = append(late, rec.late...)
			alloc, gcs, plainOps = alloc+rec.alloc, gcs+rec.gcs, plainOps+rec.attempted
		}
		ratios = append(ratios, ratio(mean[1], mean[0]))
		fmt.Fprintf(stderr, "overhead pair %d: op mean untraced %.1fus, traced %.1fus\n", p, us(time.Duration(mean[0])), us(time.Duration(mean[1])))
	}

	cfg.window /= 2
	o := &obs.Obs{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(spanCap)}
	cfg.obs = o
	w, err := setup(cfg)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced setup: %w", err)
	}
	defer w.close()
	l := newLedger(o)
	d := counters{}
	var before counters
	rec := newRecorder()
	rec.onBegin = func(g *rig) { before = l.read(g) }
	rec.onEnd = func(g *rig) {
		for k, v := range delta(before, l.read(g)) {
			d[k] += v
		}
	}
	w.measure(rec)
	w.check(rec)
	attempted, failed = attempted+rec.attempted, failed+rec.failed
	w.twin(l)
	r := w.base()
	l.layerCalls(r, rec.texts)
	l.derive(w, d, rec)
	l.set("go.alloc_bytes_per_op", "bytes", ratio(float64(alloc), float64(plainOps)))
	l.set("go.gc_cycles_per_kop", "count", ratio(float64(gcs)*1000, float64(plainOps)))
	l.add("workload.generator_late_ms", "ms", ms(quantile(late, .99)))
	l.overhead(ratios, plain)
	l.set("store.log_mb_end", "MB", dirMB(r.dir))
	l.set("host.kernel_us", "us", us(meanDur(rec.kernel)))
	l.set("workload.ops_failed_ratio", "ratio", ratio(float64(failed), float64(attempted)))

	spans := selfTimes(o.Tracer.Spans())
	var deliver []time.Duration
	for _, s := range spans {
		if s.Name == "dist.deliver" {
			deliver = append(deliver, s.self)
		}
	}
	l.add("dist.deliver_ms", "ms", ms(meanDur(deliver)))
	path := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		l.note("writing spans: %v", err)
	}
	l.print(stderr, spans, path)
	fmt.Fprintf(stderr, "perfbench: %d ops in %d overhead rounds and the traced run; %d failed\n", attempted, 2*overheadPairs, failed)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: l.m}, l, nil
}

// round sets the workload up (traced when o is not nil), measures and
// checks it, and tears it down. The recorder carries the allocation and
// GC counts of the measured stretches; kind is the workload's op.
func round(setup setupFunc, cfg config, o *obs.Obs) (rec *recorder, kind string, err error) {
	cfg.obs = o
	w, err := setup(cfg)
	if err != nil {
		return nil, "", fmt.Errorf("setup: %w", err)
	}
	defer w.close()
	rec = newRecorder()
	var m0 runtime.MemStats
	rec.onBegin = func(*rig) { runtime.ReadMemStats(&m0) }
	rec.onEnd = func(*rig) {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		rec.alloc += m1.TotalAlloc - m0.TotalAlloc
		rec.gcs += uint64(m1.NumGC - m0.NumGC)
	}
	w.measure(rec)
	w.check(rec)
	return rec, w.primary(), nil
}

// overhead sets obs.trace_overhead_pct, the median over pairs of the
// traced op mean over the untraced one, and the spread (max minus min
// over median) of the untraced rounds' mean, which it must exceed to
// count as resolved.
func (l *ledger) overhead(ratios, plain []float64) {
	pct := (median(ratios) - 1) * 100
	noise := 0.0
	if len(plain) > 0 {
		s := append([]float64(nil), plain...)
		sort.Float64s(s)
		noise = ratio(s[len(s)-1]-s[0], median(s)) * 100
	}
	l.set("obs.trace_overhead_pct", "%", pct)
	l.set("obs.trace_overhead_noise_pct", "%", noise)
	if math.Abs(pct) < noise {
		l.note("obs.trace_overhead_pct %.2f%% is unresolved: within the untraced rounds' spread of %.2f%%", pct, noise)
	}
}

// layerCalls times the benchmark's own calls into datalog, workspace and
// lbcrypto on the run's data: each query text is parsed, a snapshot is
// acquired and the text is evaluated on it; each batch-shaped statement
// is signed and verified.
func (l *ledger) layerCalls(r *rig, texts []string) {
	cfg := r.cfg
	ws := r.reader.Workspace()
	texts = spread(texts, layerTexts)
	var parse, acquire, query time.Duration
	var gas int64
	timed := func(trace obs.TraceID, parent, name string, fn func()) time.Duration {
		span := cfg.span(trace, parent, name)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		span.End()
		return d
	}
	for _, text := range texts {
		trace := obs.NewTraceID()
		root := cfg.span(trace, "", "layer.query")
		parse += timed(trace, root.ID(), "datalog.parse", func() {
			if _, err := datalog.ParseClause(text + "."); err != nil {
				l.note("parse %q: %v", text, err)
			}
		})
		var snap *workspace.Snapshot
		acquire += timed(trace, root.ID(), "workspace.snapshot", func() { snap = ws.Snapshot() })
		query += timed(trace, root.ID(), "workspace.query", func() {
			_, st, err := snap.QueryStats(text)
			if err != nil {
				l.note("query %q: %v", text, err)
			}
			gas += st.Gas
		})
		root.End()
	}
	n := float64(len(texts))
	l.set("datalog.parse_us", "us", ratio(us(parse), n))
	l.set("datalog.query_eval_us", "us", ratio(us(query-parse), n))
	l.set("datalog.query_gas", "count", ratio(float64(gas), n))
	l.set("workspace.snapshot_acquire_us", "us", ratio(us(acquire), n))

	p, _ := r.sys.Principal(r.signer)
	ks := p.Keys()
	priv, _ := ks.RSAKey(r.signer)
	var sign, verify time.Duration
	for _, stmt := range r.statements {
		rule, err := datalog.ParseClause(stmt)
		if err != nil {
			l.note("statement %q: %v", stmt, err)
			continue
		}
		v := datalog.NewCode(rule)
		var sig string
		sign += timed("", "", "lbcrypto.sign", func() {
			if sig, err = ks.SignRSA(v, priv); err != nil {
				l.note("sign: %v", err)
			}
		})
		verify += timed("", "", "lbcrypto.verify", func() {
			if !ks.VerifyRSA(v, sig, &priv.PublicKey) {
				l.note("signature over %q does not verify", stmt)
			}
		})
	}
	k := float64(len(r.statements))
	l.set("lbcrypto.sign_us", "us", ratio(us(sign), k))
	l.set("lbcrypto.verify_us", "us", ratio(us(verify), k))
}

// spread picks up to n texts, evenly spaced in sorted order, so the
// choice depends only on which texts the run issued.
func spread(texts []string, n int) []string {
	s := append([]string(nil), texts...)
	sort.Strings(s)
	if len(s) <= n {
		return s
	}
	out := make([]string, n)
	for i := range out {
		out[i] = s[i*len(s)/n]
	}
	return out
}

// derive turns the window's counter deltas, the recorders and the twin
// replay into the per-layer metrics.
func (l *ledger) derive(w workload, d counters, rec *recorder) {
	writes := d["writes"]
	handle := func(verb string) float64 { return d.meanSec("req." + verb) }
	l.set("server.query_handle_us", "us", handle("query")*1e6)
	l.set("server.query_wire_us", "us", us(rec.mean(opQuery))-handle("query")*1e6)
	l.set("server.refused_total", "count", d["refused"])
	l.set("server.overloaded_total", "count", d["overloaded"])
	l.set("server.limit_tripped_total", "count", d["limit"])
	l.add("server.say_handle_us", "us", handle("say")*1e6)
	l.add("server.sync_handle_ms", "ms", handle("sync")*1e3)
	l.add("server.assert_handle_us", "us", handle("assert")*1e6)
	l.add("server.retract_handle_ms", "ms", handle("retract")*1e3)

	l.set("datalog.full_runs_per_write", "count", ratio(d["eval.full"], writes))
	l.set("datalog.delta_runs_per_write", "count", ratio(d["eval.delta"], writes))
	l.add("datalog.derived_per_retract", "count", meanInt(l.updDer[opRetract]))

	l.add("workspace.snapshot_publish_us", "us", d.meanSec("publish")*1e6)
	l.set("workspace.snapshot_rels_cloned_per_publish", "count", ratio(d["cloned"], d["publish.n"]))
	l.add("workspace.flush_us", "us", d.meanSec("flush")*1e6)
	l.set("workspace.checks_incremental_per_flush", "count", ratio(d["check.incr"], d["flush.n"]))
	l.set("workspace.checks_full_per_flush", "count", ratio(d["check.full"], d["flush.n"]))
	l.set("workspace.checks_skipped_per_flush", "count", ratio(d["check.skipped"], d["flush.n"]))
	ag, rg := meanInt(l.updGas[opAssert]), meanInt(l.updGas[opRetract])
	l.add("workspace.assert_gas", "count", ag)
	l.add("workspace.retract_gas", "count", rg)
	l.add("workspace.retract_assert_gas_ratio", "ratio", ratio(rg, ag))
	l.add("workspace.update_assert_us", "us", us(meanDur(l.updTime[opAssert])))
	l.add("workspace.update_retract_ms", "ms", ms(meanDur(l.updTime[opRetract])))

	batches := float64(rec.count(opBatch))
	batchMean := us(rec.mean(opBatch))
	crypto := float64(batchSize) * (l.m["lbcrypto.sign_us"].Value + l.m["lbcrypto.verify_us"].Value)
	if batches == 0 {
		crypto = 0
	}
	l.set("lbcrypto.crypto_share", "ratio", ratio(crypto, batchMean))

	l.add("dist.sync_ms", "ms", d.meanSec("distsync")*1e3)
	l.set("dist.wire_bytes_per_msg", "bytes", ratio(d["wirebytes"], d["delivered"]))
	l.set("dist.envelopes_per_batch", "count", ratio(d["wiremsgs"], batches))
	l.set("dist.scanned_per_delivered", "ratio", ratio(d["scanned"], d["delivered"]))
	l.set("dist.suppressed_tuples", "count", d["suppressed"])
	l.set("dist.rejected_tuples", "count", d["rejected"])
	l.set("dist.send_failures", "count", d["sendfail"])

	l.set("store.wal_bytes_per_write", "bytes", ratio(d["walbytes"], writes))
	l.set("store.wal_commits_per_write", "count", ratio(d["walcommits"], writes))
	l.add("store.wal_commit_us", "us", d.meanSec("walcommit")*1e6)
	l.add("store.fsync_us", "us", d.meanSec("fsync")*1e6)

	l.set("workload.query_repeat_ratio", "ratio", rec.repeatRatio())

	// Shares of each op type's traced mean that the named layer
	// metrics (means too) account for. Assert and retract exist only on
	// revoke-churn, which BENCHMARK.json does not list, so their shares
	// are ledger only.
	share := func(op string, layerUS float64) {
		v := 0.0
		if rec.count(op) > 0 {
			v = ratio(layerUS, us(rec.mean(op)))
		}
		if op == opAssert || op == opRetract {
			l.add("share."+op, "ratio", v)
		} else {
			l.set("share."+op, "ratio", v)
		}
	}
	share(opQuery, l.m["datalog.parse_us"].Value+l.m["datalog.query_eval_us"].Value+l.m["workspace.snapshot_acquire_us"].Value)
	share(opSay, handle("say")*1e6)
	share(opSync, handle("sync")*1e6)
	share(opAssert, handle("assert")*1e6)
	share(opRetract, handle("retract")*1e6)
	share(opBatch, batchSize*handle("say")*1e6+handle("sync")*1e6+handle("query")*1e6)
	for _, a := range w.aliases(rec) {
		l.add("traced."+a.name, a.Unit, a.Value)
	}
}

func meanInt(xs []int64) float64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return ratio(float64(s), float64(len(xs)))
}

func meanDur(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var s time.Duration
	for _, x := range xs {
		s += x
	}
	return s / time.Duration(len(xs))
}

// dirMB is the size of the files under dir in MiB (0 for "").
func dirMB(dir string) float64 {
	if dir == "" {
		return 0
	}
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

// tspan is a finished span with its parent resolved and its self time:
// its duration minus the part its children cover.
type tspan struct {
	obs.Span
	parent int // index, -1 for a root
	self   time.Duration
}

func (s *tspan) end() time.Time { return s.Start.Add(s.Duration) }

func (s *tspan) contains(c *tspan) bool {
	return !c.Start.Before(s.Start) && !c.end().After(s.end())
}

// selfTimes links spans to parents and computes self times. Benchmark
// spans name their parent. The program's spans do not know the client op
// that caused them, so a server.<verb> span is attached to an op.<verb>
// span that contains it in time; dist.sync to the server.sync of the same
// trace, and dist.deliver to the dist.sync of the same trace.
func selfTimes(raw []obs.Span) []*tspan {
	spans := make([]*tspan, len(raw))
	byID := map[string]int{}
	byName := map[string][]int{}
	for i, s := range raw {
		spans[i] = &tspan{Span: s, parent: -1}
		byID[string(s.Trace)+"/"+s.ID] = i
	}
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], i)
	}
	for _, idx := range byName {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start.Before(spans[idx[b]].Start) })
	}
	sameTrace := func(i int, parentName string) int {
		for _, j := range byName[parentName] {
			if spans[j].Trace == spans[i].Trace && spans[j].contains(spans[i]) {
				return j
			}
		}
		return -1
	}
	taken := map[int]bool{}
	for i, s := range spans {
		switch {
		case s.Parent != "":
			if j, ok := byID[string(s.Trace)+"/"+s.Parent]; ok {
				s.parent = j
			}
		case s.Name == "dist.sync":
			s.parent = sameTrace(i, "server.sync")
		case s.Name == "dist.deliver":
			s.parent = sameTrace(i, "dist.sync")
		case strings.HasPrefix(s.Name, "server."):
			ops := byName["op."+strings.TrimPrefix(s.Name, "server.")]
			// The latest-starting unclaimed op span that began before
			// this server span and contains it.
			k := sort.Search(len(ops), func(k int) bool { return spans[ops[k]].Start.After(s.Start) })
			for k--; k >= 0; k-- {
				if j := ops[k]; !taken[j] && spans[j].contains(s) {
					s.parent, taken[j] = j, true
					break
				}
			}
		}
	}
	children := map[int][]int{}
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, s := range spans {
		s.self = s.Duration - covered(s, spans, children[i])
	}
	return spans
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(p *tspan, spans []*tspan, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].end()
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.end()) {
			b = p.end()
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []*tspan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].ID
		}
		if err := enc.Encode(map[string]any{
			"trace": s.Trace, "id": s.ID, "parent": parent, "name": s.Name, "node": s.Node,
			"start_unix_ns": s.Start.UnixNano(), "dur_ns": int64(s.Duration), "self_ns": int64(s.self),
		}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// print writes the ledger to standard error: per-layer metrics, the
// ledger-only numbers, and each span name's count, mean and self time.
func (l *ledger) print(w io.Writer, spans []*tspan, path string) {
	names := make([]string, 0, len(l.m))
	for n := range l.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "layer %-44s %14.6g %s\n", n, l.m[n].Value, l.m[n].Unit)
	}
	for _, a := range l.info {
		fmt.Fprintf(w, "layer %-44s %14.6g %s (ledger only)\n", a.name, a.Value, a.Unit)
	}
	type agg struct {
		n         int
		dur, self time.Duration
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.dur += s.Duration
		a.self += s.self
	}
	names = names[:0]
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "span  %-24s n=%-7d mean=%10.1fus self=%10.1fus\n", n, a.n,
			us(a.dur)/float64(a.n), us(a.self)/float64(a.n))
	}
	if len(spans) >= spanCap {
		fmt.Fprintf(w, "perfbench: span ring full; the oldest spans were dropped\n")
	}
	fmt.Fprintf(w, "perfbench: %d spans written to %s\n", len(spans), path)
	for _, n := range l.notes {
		fmt.Fprintf(w, "perfbench: note: %s\n", n)
	}
}
