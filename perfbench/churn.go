package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/obs"
	"lbtrust/internal/store"
	"lbtrust/internal/workspace"
)

// churnPolicy grants objects and passes them down delegation edges.
const churnPolicy = `
may(U,O) <- grant(U,O).
may(U,O) <- delegates(A,U), may(A,O).
`

// opInterval is the open-loop writer's spacing between ops: an assert,
// then a retract, so 10 grant/revoke pairs per second.
const opInterval = 50 * time.Millisecond

type edge [2]int

// churnOp is one committed write, in commit order.
type churnOp struct {
	retract bool
	e       edge
}

// churn is the revoke-churn workload: an open-loop writer session asserts
// a delegation edge and retracts a random one, 10 pairs a second, while a
// closed-loop reader session asks may(uK, O) with K uniform.
type churn struct {
	rig
	chains, users, objects int
	grants                 map[int]int // chain root user -> object
	initial                []edge
	edges                  []edge       // current edge set (model)
	index                  map[edge]int // edge -> position in edges
	log                    []churnOp
}

func setupChurn(cfg config) (workload, error) {
	w := &churn{rig: rig{cfg: cfg, signer: "rm"}, chains: 3000, objects: 500}
	if cfg.tiny {
		w.chains, w.objects = 40, 10
	}
	w.users = 3 * w.chains
	if err := w.build(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func user(i int) datalog.Sym { return datalog.Sym(fmt.Sprintf("u%d", i)) }

func (e edge) fact() string { return fmt.Sprintf("delegates(u%d, u%d)", e[0], e[1]) }

func (w *churn) addEdge(e edge) {
	w.index[e] = len(w.edges)
	w.edges = append(w.edges, e)
}

func (w *churn) removeEdge(e edge) {
	i, last := w.index[e], w.edges[len(w.edges)-1]
	w.edges[i], w.index[last] = last, i
	w.edges = w.edges[:len(w.edges)-1]
	delete(w.index, e)
}

func (w *churn) build() error {
	rnd := rand.New(rand.NewSource(w.cfg.seed))
	perm := rnd.Perm(w.users)
	w.grants, w.index = map[int]int{}, map[edge]int{}
	for c := 0; c < w.chains; c++ {
		a, b, d := perm[3*c], perm[3*c+1], perm[3*c+2]
		w.grants[a] = rnd.Intn(w.objects)
		w.addEdge(edge{a, b})
		w.addEdge(edge{b, d})
	}
	w.initial = append([]edge(nil), w.edges...)
	for _, e := range w.edges[:min(100, len(w.edges))] {
		w.statements = append(w.statements, e.fact()+".")
	}

	dir, err := w.durableDir("churn-")
	if err != nil {
		return err
	}
	w.sys, err = core.OpenSystem(dir, core.DurableOptions{Fsync: store.FsyncInterval, FsyncInterval: 50 * time.Millisecond})
	if err != nil {
		return err
	}
	rm, err := w.sys.AddPrincipal("rm")
	if err != nil {
		return err
	}
	w.reader = rm
	if err := w.sys.EstablishRSA("rm"); err != nil {
		return err
	}
	if err := rm.LoadProgram(churnPolicy); err != nil {
		return err
	}
	if err := rm.Update(w.loadBase); err != nil {
		return err
	}
	return w.serve("rm", "rm")
}

// loadBase asserts the generated grants and the initial edges.
func (w *churn) loadBase(tx *workspace.Tx) error {
	for u, o := range w.grants {
		if err := tx.AssertTuple("grant", datalog.NewTuple(user(u), datalog.Sym(fmt.Sprintf("o%d", o)))); err != nil {
			return err
		}
	}
	for _, e := range w.initial {
		if err := tx.AssertTuple("delegates", datalog.NewTuple(user(e[0]), user(e[1]))); err != nil {
			return err
		}
	}
	return nil
}

func (w *churn) primary() string { return opRetract }

// churnKernels is how many calibration kernel runs bracket the window:
// the open-loop writer cannot pause inside it.
const churnKernels = 50

func (w *churn) measure(rec *recorder) {
	rec.calibrate(churnKernels)
	defer rec.calibrate(churnKernels)
	rec.begin(&w.rig)
	defer rec.end(&w.rig)
	deadline := time.Now().Add(w.cfg.window)
	rec.start = time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w.write(rec, deadline)
	}()
	go func() {
		defer wg.Done()
		w.read(rec, deadline)
	}()
	wg.Wait()
	rec.elapsed = time.Since(rec.start)
}

// write is the open-loop writer: op j is due at start + j*opInterval,
// and its latency counts from then.
func (w *churn) write(rec *recorder, deadline time.Time) {
	c := w.sessions[0]
	rnd := rand.New(rand.NewSource(w.cfg.seed*7919 + 1))
	for j := 0; w.more(deadline, j); j++ {
		due := rec.start.Add(time.Duration(j) * opInterval)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		rec.lateBy(time.Since(due))
		if j%2 == 0 {
			e := edge{rnd.Intn(w.users), rnd.Intn(w.users)}
			for _, dup := w.index[e]; dup || e[0] == e[1]; _, dup = w.index[e] {
				e = edge{rnd.Intn(w.users), rnd.Intn(w.users)}
			}
			if w.timed(rec, opAssert, e.fact(), due, func() error { return c.Assert(e.fact()) }) {
				w.addEdge(e)
				w.log = append(w.log, churnOp{e: e})
			}
			continue
		}
		e := w.edges[rnd.Intn(len(w.edges))]
		if w.timed(rec, opRetract, e.fact(), due, func() error { return c.Retract(e.fact()) }) {
			w.removeEdge(e)
			w.log = append(w.log, churnOp{retract: true, e: e})
		}
	}
}

// read is the closed-loop reader. Answers race the writer, so each is
// checked for shape only; check compares the final state in full.
func (w *churn) read(rec *recorder, deadline time.Time) {
	c := w.sessions[1]
	rnd := rand.New(rand.NewSource(w.cfg.seed*7919 + 2))
	for n := 0; w.more(deadline, n); n++ {
		// A fresh variable name per query keeps texts from repeating.
		u := user(rnd.Intn(w.users))
		text := fmt.Sprintf("may(%s, O%d)", u, rnd.Intn(1_000_000))
		rec.text(text)
		w.timed(rec, opQuery, text, time.Time{}, func() error {
			rows, err := c.Query(text)
			if err != nil {
				return err
			}
			for _, t := range rows {
				if t.Len() != 2 || t.At(0) != datalog.Value(u) {
					return fmt.Errorf("row %v does not answer %s", t, text)
				}
			}
			return nil
		})
	}
}

// check is the revoke-churn oracle: the served base facts equal the
// writer's model, and the served may equals a from-scratch evaluation of
// those base facts in a fresh workspace (incremental equals from-scratch).
func (w *churn) check(rec *recorder) {
	ws := w.reader.Workspace()
	var served []string
	for _, t := range ws.BaseFacts("delegates") {
		served = append(served, "delegates"+t.String())
	}
	var model []string
	for _, e := range w.edges {
		model = append(model, "delegates"+datalog.NewTuple(user(e[0]), user(e[1])).String())
	}
	sort.Strings(served)
	sort.Strings(model)
	w.verdict(rec, "final delegates facts", served, model)

	rows, err := w.sessions[1].Query("may(U, O)")
	if err != nil {
		rec.fail("oracle", "may(U, O)", err)
		return
	}
	fresh := workspace.New("rm")
	if err := fresh.LoadProgram(churnPolicy); err != nil {
		rec.fail("oracle", "fresh workspace", err)
		return
	}
	if err := fresh.Update(func(tx *workspace.Tx) error {
		for _, pred := range []string{"grant", "delegates"} {
			for _, t := range ws.BaseFacts(pred) {
				if err := tx.AssertTuple(pred, t); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		rec.fail("oracle", "fresh workspace", err)
		return
	}
	w.verdict(rec, "served may vs from-scratch", render(rows), render(fresh.Facts("may")))
}

// verdict records one oracle comparison of two sorted sets.
func (w *churn) verdict(rec *recorder, what string, got, want []string) {
	if len(got) == len(want) {
		same := true
		for i := range got {
			if got[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			rec.ok("oracle", 0)
			return
		}
	}
	missing, extra := diff(got, want)
	rec.fail("oracle", what, fmt.Errorf("%d rows, want %d; missing %v; extra %v", len(got), len(want), missing, extra))
}

func render(ts []datalog.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

// diff lists up to five rows of want missing from got and of got not in
// want.
func diff(got, want []string) (missing, extra []string) {
	in := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	g, wt := in(got), in(want)
	for _, x := range want {
		if !g[x] && len(missing) < 5 {
			missing = append(missing, x)
		}
	}
	for _, x := range got {
		if !wt[x] && len(extra) < 5 {
			extra = append(extra, x)
		}
	}
	return missing, extra
}

func (w *churn) e2e(rec *recorder) map[string]metric {
	return opMetrics(queryMetrics(rec), rec, opRetract, 1)
}

func (w *churn) aliases(rec *recorder) []alias {
	return []alias{
		{"assert_p50_us", metric{us(rec.quantile(opAssert, .5)), "us"}},
		{"retract_p50_ms", metric{ms(rec.quantile(opRetract, .5)), "ms"}},
		{"retract_p90_ms", metric{ms(rec.quantile(opRetract, .9)), "ms"}},
		{"generator_late_p99_ms", metric{ms(quantile(rec.late, .99)), "ms"}},
	}
}

// twin replays the committed writes, in order, on a metered workspace
// holding the same policy and initial facts, and hands each flush's gas
// and derived-tuple counts to the ledger.
func (w *churn) twin(l *ledger) {
	tw := workspace.New("rm")
	tw.SetObs(&obs.Obs{Registry: obs.NewRegistry()})
	if err := tw.LoadProgram(churnPolicy); err != nil {
		l.note("twin: %v", err)
		return
	}
	if err := tw.Update(w.loadBase); err != nil {
		l.note("twin: %v", err)
		return
	}
	for _, op := range w.log {
		kind := opAssert
		if op.retract {
			kind = opRetract
		}
		t := datalog.NewTuple(user(op.e[0]), user(op.e[1]))
		span := w.cfg.span("", "", "workspace.update")
		t0 := time.Now()
		st, err := tw.UpdateTraced("", func(tx *workspace.Tx) error {
			if op.retract {
				return tx.RetractTuple("delegates", t)
			}
			return tx.AssertTuple("delegates", t)
		})
		d := time.Since(t0)
		span.End()
		if err != nil {
			l.note("twin %s %v: %v", kind, t, err)
			continue
		}
		l.update(kind, st, d)
	}
}
