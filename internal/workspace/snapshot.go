// Snapshot reads: queries against an immutable view of the workspace.
//
// A workspace serializes every operation behind one mutex, which is right
// for transactions but makes N concurrent readers take turns — and makes
// every reader wait out any in-flight flush. Snapshot() publishes an
// immutable database view assembled from frozen clones of the live
// relations; any number of goroutines can then query the view with no
// lock held, while writers keep flushing the live workspace.
//
// Publication is copy-on-demand, not copy-on-flush: a commit only drops
// the published view (one atomic store), and the next Snapshot() call
// re-clones exactly the relations mutated since they were last published.
// Each relation tracks that itself (Relation.Published), so an unchanged
// relation keeps handing out the same frozen object, index caches and
// all. Readers arriving between commits share the cached view, so a
// read-heavy workload pays one clone per (relation, flush) pair at worst,
// and a write-only workload pays almost nothing.
package workspace

import (
	"fmt"
	"strings"
	"time"

	"lbtrust/internal/datalog"
	"lbtrust/internal/meta"
)

// Snapshot is an immutable view of a workspace at one publication point.
// All methods are safe for concurrent use by any number of goroutines;
// none of them take the workspace lock (or any lock beyond the frozen
// relations' internal index latches).
type Snapshot struct {
	principal datalog.Sym
	db        *datalog.Database
	builtins  *datalog.BuiltinSet
	limits    datalog.Limits // query limits captured at publication
	// eval carries the workspace's evaluator metrics at publication, so
	// lock-free snapshot reads count as query runs like locked reads do.
	eval *datalog.EvalMetrics
}

// Principal returns the owning workspace's principal symbol.
func (s *Snapshot) Principal() datalog.Sym { return s.principal }

// parseQueryAtom is the query preamble shared by the live path
// (Workspace.Query) and snapshot reads: parse, require a single atom,
// specialize me to the principal.
func parseQueryAtom(src string, principal datalog.Sym) (*datalog.Atom, error) {
	clause, err := datalog.ParseClause(strings.TrimRight(strings.TrimSpace(src), ".") + ".")
	if err != nil {
		return nil, err
	}
	if len(clause.Heads) != 1 || len(clause.Body) != 0 {
		return nil, fmt.Errorf("workspace: query must be a single atom")
	}
	return &substMe(clause, principal).Heads[0], nil
}

// Query evaluates a single atom against the snapshot, in the same surface
// syntax as Workspace.Query (quoted-code arguments act as patterns).
func (s *Snapshot) Query(src string) ([]datalog.Tuple, error) {
	rows, _, err := s.QueryStats(src)
	return rows, err
}

// QueryStats is Query additionally reporting the read's evaluation cost.
// A counting budget is always armed — unlimited when no query limits are
// configured — so gas is measured even on otherwise unmetered reads; the
// server's slow-query log relies on that.
func (s *Snapshot) QueryStats(src string) ([]datalog.Tuple, EvalStats, error) {
	atom, err := parseQueryAtom(src, s.principal)
	if err != nil {
		return nil, EvalStats{Gas: -1, Derived: -1}, err
	}
	b := s.limits.NewBudget()
	if b == nil {
		b = new(datalog.Budget)
	}
	rows, err := queryAtom(s.db, s.builtins, atom, b, s.eval)
	return rows, EvalStats{Gas: b.Steps(), Derived: b.Derived()}, err
}

// Facts returns the sorted tuples of a predicate in the snapshot.
func (s *Snapshot) Facts(pred string) []datalog.Tuple {
	rel, ok := s.db.Get(pred)
	if !ok {
		return nil
	}
	return rel.Sorted()
}

// Count returns the number of tuples of a predicate in the snapshot.
func (s *Snapshot) Count(pred string) int {
	rel, ok := s.db.Get(pred)
	if !ok {
		return 0
	}
	return rel.Len()
}

// Snapshot returns the current immutable view of the workspace. While no
// commit has happened since the last publication the call is lock-free
// (one atomic load): readers must never stall behind an in-flight flush
// that hasn't changed anything they could see yet. Otherwise it takes the
// workspace lock and publishes a view of every relation's
// Relation.Published copy, which re-clones exactly the relations mutated
// since they were last published.
func (w *Workspace) Snapshot() *Snapshot {
	// Every site that changes what a view would contain clears w.snap
	// under w.mu before the change is observable, so a non-nil load is at
	// least as fresh as every commit that completed before this call.
	if s := w.snap.Load(); s != nil {
		return s
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if s := w.snap.Load(); s != nil {
		return s
	}
	var pubStart time.Time
	if w.metrics != nil {
		pubStart = time.Now()
	}
	cloned := 0
	// The published database gets its own relation map: older snapshots
	// keep whatever versions they were built from.
	db := datalog.NewDatabase()
	for _, name := range w.db.Names() {
		if checkStatePred(name) {
			continue
		}
		rel, _ := w.db.Get(name)
		frozen, fresh := rel.Published()
		if fresh {
			cloned++
		}
		db.Put(frozen)
	}
	s := &Snapshot{
		principal: w.principal,
		db:        db,
		builtins:  w.builtins,
		limits:    w.queryLimits,
		eval:      w.metrics.evalMetrics(),
	}
	if w.metrics != nil {
		w.metrics.snapPublishSeconds.Observe(time.Since(pubStart))
		w.metrics.relsCloned.Add(int64(cloned))
	}
	w.snap.Store(s)
	return s
}

// queryAtom evaluates one parsed query atom against db under the
// caller's budget (nil for unbounded), counting the run in em. It is the
// single evaluation body behind the locked live path (Workspace.Query)
// and lock-free snapshot reads.
func queryAtom(db *datalog.Database, builtins *datalog.BuiltinSet, a *datalog.Atom, bud *datalog.Budget, em *datalog.EvalMetrics) ([]datalog.Tuple, error) {
	if atomHasQuote(a) {
		return queryPattern(db, builtins, a, bud, em)
	}
	ev := datalog.NewEvaluator(db, builtins)
	ev.Metrics = em
	ev.Budget = bud
	return ev.Query(a)
}

// queryPattern evaluates an atom whose arguments contain quoted-code
// patterns by compiling it into a transient rule, translating the
// patterns into meta-model literals, and running it against an overlay of
// the given database. The overlay keeps the transient result relation out
// of the shared database.
func queryPattern(db *datalog.Database, builtins *datalog.BuiltinSet, a *datalog.Atom, bud *datalog.Budget, em *datalog.EvalMetrics) ([]datalog.Tuple, error) {
	// Blank variables cannot appear in rule heads; name them apart.
	q := *a
	q.Args = append([]datalog.Term{}, a.Args...)
	n := 0
	fix := func(t datalog.Term) datalog.Term {
		if v, ok := t.(datalog.Var); ok && v.IsBlank() {
			n++
			return datalog.Var(fmt.Sprintf("QV%d", n))
		}
		return t
	}
	if q.Part != nil {
		q.Part = fix(q.Part)
	}
	for i, t := range q.Args {
		q.Args[i] = fix(t)
	}
	const resultPred = "lb:queryresult"
	rule := &datalog.Rule{
		Heads: []datalog.Atom{{Pred: resultPred}},
		Body:  []datalog.Literal{{Atom: q}},
	}
	tr, err := meta.TranslatePatterns(rule)
	if err != nil {
		return nil, err
	}
	// The rewritten query literal keeps position 0; its arguments (with
	// pattern positions replaced by fresh variables) become the result
	// shape.
	tr.Heads[0].Args = tr.Body[0].Atom.AllArgs()
	overlay := db.Shallow()
	ev := datalog.NewEvaluator(overlay, builtins)
	ev.Metrics = em
	ev.Budget = bud
	if err := ev.SetRules([]*datalog.Rule{tr}); err != nil {
		return nil, err
	}
	if err := ev.Run(); err != nil {
		return nil, err
	}
	var out []datalog.Tuple
	if rel, ok := overlay.Get(resultPred); ok {
		out = rel.Sorted()
	}
	return out, nil
}
