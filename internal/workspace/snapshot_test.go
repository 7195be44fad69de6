package workspace

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"lbtrust/internal/datalog"
	"lbtrust/internal/obs"
)

// tupleKeys returns the tuples' canonical keys, sorted: queries answer
// in unspecified order, so comparisons are set comparisons.
func tupleKeys(ts []datalog.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	sort.Strings(out)
	return out
}

func TestSnapshotSeesCommittedState(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		path(X,Y) <- edge(X,Y).
		path(X,Z) <- path(X,Y), edge(Y,Z).
		edge(a,b). edge(b,c).
	`); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	live, err := w.Query(`path(a, X)`)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := snap.Query(`path(a, X)`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tupleKeys(live)) != fmt.Sprint(tupleKeys(ro)) {
		t.Fatalf("snapshot %v != live %v", ro, live)
	}
	if snap.Count("path") != w.Count("path") {
		t.Fatalf("snapshot count %d != live %d", snap.Count("path"), w.Count("path"))
	}
}

func TestSnapshotIsolationAndCaching(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`edge(a,b).`); err != nil {
		t.Fatal(err)
	}
	s1 := w.Snapshot()
	if s2 := w.Snapshot(); s2 != s1 {
		t.Fatalf("unchanged workspace must reuse the cached snapshot")
	}
	if err := w.Update(func(tx *Tx) error { return tx.Assert("edge(b,c)") }); err != nil {
		t.Fatal(err)
	}
	// The old view is immutable: it predates the flush.
	if n := s1.Count("edge"); n != 1 {
		t.Fatalf("old snapshot sees %d edges, want 1", n)
	}
	s3 := w.Snapshot()
	if s3 == s1 {
		t.Fatalf("flush must invalidate the cached snapshot")
	}
	if n := s3.Count("edge"); n != 2 {
		t.Fatalf("new snapshot sees %d edges, want 2", n)
	}
}

func TestSnapshotAfterRetraction(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		path(X,Y) <- edge(X,Y).
		edge(a,b). edge(b,c).
	`); err != nil {
		t.Fatal(err)
	}
	w.Snapshot()
	if err := w.Update(func(tx *Tx) error { return tx.Retract("edge(a,b)") }); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	rows, err := snap.Query(`path(X, Y)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("snapshot after retraction sees %v, want only path(b,c)", rows)
	}
}

func TestSnapshotRolledBackTransactionInvisible(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		c1: q(X) -> allowed(X).
		allowed(a). q(a).
	`); err != nil {
		t.Fatal(err)
	}
	w.Snapshot()
	if err := w.Update(func(tx *Tx) error { return tx.Assert("q(zzz)") }); err == nil {
		t.Fatalf("violating transaction committed")
	}
	snap := w.Snapshot()
	if n := snap.Count("q"); n != 1 {
		t.Fatalf("rolled-back fact visible in snapshot: %d q tuples", n)
	}
}

func TestSnapshotExcludesCheckState(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		c1: q(X) -> allowed(X).
		allowed(a). q(a).
	`); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	for _, name := range snap.db.Names() {
		if checkStatePred(name) {
			t.Fatalf("snapshot carries check-evaluator relation %s", name)
		}
	}
}

func TestSnapshotPatternQuery(t *testing.T) {
	w := New("bob")
	if err := w.LoadProgram(`
		says0: says(U1,U2,R) -> prin(U1), prin(U2), rule(R).
		prin(alice). prin(bob).
	`); err != nil {
		t.Fatal(err)
	}
	if err := w.Update(func(tx *Tx) error {
		if err := tx.Assert(`says(alice, me, [| access(chris, f1, read). |])`); err != nil {
			return err
		}
		return tx.Assert(`says(alice, me, [| access(dana, f2, write). |])`)
	}); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	// The locked live read, the snapshot read and its stats form must
	// stay in lockstep on plain atoms and on quoted-code patterns alike.
	for _, tc := range []struct {
		name, q string
		want    int
	}{
		{"plain", `prin(P)`, 2},
		{"pattern", `says(alice, me, [| access(U, F, read). |])`, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live, err := w.Query(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			ro, err := snap.Query(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			stat, st, err := snap.QueryStats(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprint(tupleKeys(live))
			if len(live) != tc.want || fmt.Sprint(tupleKeys(ro)) != want || fmt.Sprint(tupleKeys(stat)) != want {
				t.Fatalf("live %v, snapshot %v, stats %v: want %d identical rows", live, ro, stat, tc.want)
			}
			if st.Gas <= 0 {
				t.Fatalf("QueryStats gas = %d with no limits configured, want > 0", st.Gas)
			}
		})
	}
	// The transient result relation must not leak into the snapshot or
	// the live database.
	if _, ok := snap.db.Get("lb:queryresult"); ok {
		t.Fatalf("query result relation leaked into snapshot")
	}
	if _, ok := w.DB().Get("lb:queryresult"); ok {
		t.Fatalf("query result relation leaked into live database")
	}
}

// TestSnapshotConcurrentReaders hammers one snapshot (and fresh ones)
// from many goroutines while a writer flushes: the frozen relations'
// lazy index construction and the copy-on-demand publication must be
// race-free. Run under -race in CI.
func TestSnapshotConcurrentReaders(t *testing.T) {
	w := New("alice")
	if err := w.Update(func(tx *Tx) error {
		for i := 0; i < 300; i++ {
			if err := tx.Assert(fmt.Sprintf("item(%d, v%d)", i, i%7)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := w.Update(func(tx *Tx) error {
				return tx.Assert(fmt.Sprintf("item(%d, fresh)", 1000+i))
			}); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				snap := w.Snapshot()
				rows, err := snap.Query(fmt.Sprintf("item(%d, X)", i%300))
				if err != nil {
					errs <- err
					return
				}
				if len(rows) != 1 {
					errs <- fmt.Errorf("reader %d: got %d rows", r, len(rows))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFrozenRelationPanicsOnMutation(t *testing.T) {
	rel := datalog.NewRelation("r", 1)
	rel.Insert(datalog.NewTuple(datalog.Sym("a")))
	rel.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatalf("insert into frozen relation did not panic")
		}
	}()
	rel.Insert(datalog.NewTuple(datalog.Sym("b")))
}

// snapshotOracleProgram has recursion, negation, an aggregate, a
// constraint (so flushes build check state) and says-activated rules.
const snapshotOracleProgram = `
	says0: says(U1,U2,R) -> .
	says1: active(R) <- says(_, me, R).
	c1: edge(X,Y) -> node(X), node(Y).
	path(X,Y) <- edge(X,Y).
	path(X,Z) <- path(X,Y), edge(Y,Z).
	unreached(X) <- node(X), !path(n0, X).
	outdeg(X,N) <- agg<<N = count(Y)>> edge(X,Y).
	node(n0).
`

// snapshotOracleSaid is the pool of rules bob can say to the workspace.
var snapshotOracleSaid = []string{
	`[| hop(X,Z) <- edge(X,Y), edge(Y,Z). |]`,
	`[| marked(n1). |]`,
	`[| lonely(X) <- node(X), !edge(X,_). |]`,
}

// snapshotDump renders every relation of the view that Snapshot() must
// publish, from either side: the live workspace (via Facts, under the
// lock) or a snapshot.
func snapshotDump(names []string, facts func(string) []datalog.Tuple) string {
	var b strings.Builder
	for _, name := range names {
		if checkStatePred(name) {
			continue
		}
		fmt.Fprintf(&b, "%s:%v\n", name, tupleKeys(facts(name)))
	}
	return b.String()
}

// TestSnapshotMatchesLiveRandomized is the seeded oracle for snapshot
// publication: random transactions (asserts and retracts, says-activated
// rules, constraint violations, flush-budget rollbacks, limit changes),
// with some steps skipping Snapshot() so flushes pile up between
// publications. Every snapshot must equal the live workspace relation by
// relation, and an earlier snapshot must never change.
func TestSnapshotMatchesLiveRandomized(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := New("alice")
		if err := w.LoadProgram(snapshotOracleProgram); err != nil {
			t.Fatal(err)
		}
		node := func() string { return fmt.Sprintf("n%d", rng.Intn(5)) }
		var prev *Snapshot
		var prevDump string
		for step := 0; step < 60; step++ {
			switch r := rng.Intn(10); {
			case r == 0:
				// A flush that trips its budget rolls back.
				w.SetLimits(datalog.Limits{}, datalog.Limits{Gas: 1})
				err := w.Update(func(tx *Tx) error {
					if err := tx.Assert("node(tmp)"); err != nil {
						return err
					}
					return tx.Assert("edge(n0, tmp)")
				})
				if datalog.ErrCode(err) != datalog.CodeLimitGas {
					t.Fatalf("seed %d step %d: tripped flush err = %v, want %s", seed, step, err, datalog.CodeLimitGas)
				}
				w.SetLimits(datalog.Limits{}, datalog.Limits{})
			case r == 1:
				w.SetLimits(datalog.Limits{Gas: int64(1000 + rng.Intn(1000))}, datalog.Limits{})
			default:
				// Errors are expected: an edge to an undeclared node, or a
				// node retraction under its edges, violates c1 and rolls
				// back.
				_ = w.Update(func(tx *Tx) error {
					for i := 1 + rng.Intn(4); i > 0; i-- {
						var fact string
						switch rng.Intn(3) {
						case 0:
							fact = "node(" + node() + ")"
						case 1:
							fact = "edge(" + node() + ", " + node() + ")"
						default:
							fact = "says(bob, me, " + snapshotOracleSaid[rng.Intn(len(snapshotOracleSaid))] + ")"
						}
						op := tx.Assert
						if rng.Intn(3) == 0 {
							op = tx.Retract
						}
						if err := op(fact); err != nil {
							return err
						}
					}
					return nil
				})
			}
			if rng.Intn(3) == 0 {
				continue // let flushes pile up before the next publication
			}
			snap := w.Snapshot()
			live := snapshotDump(w.DB().Names(), w.Facts)
			if got := snapshotDump(snap.db.Names(), snap.Facts); got != live {
				t.Fatalf("seed %d step %d: snapshot differs from live workspace\nsnapshot:\n%s\nlive:\n%s", seed, step, got, live)
			}
			if prev != nil && snapshotDump(prev.db.Names(), prev.Facts) != prevDump {
				t.Fatalf("seed %d step %d: an earlier snapshot changed", seed, step)
			}
			prev, prevDump = snap, live
		}
	}
}

// TestSnapshotReusesUnchangedRelations: a publication re-clones exactly
// the relations mutated since the last one, so an untouched relation
// stays the same frozen object (index caches included), and a settings
// change republishes without cloning anything.
func TestSnapshotReusesUnchangedRelations(t *testing.T) {
	reg := obs.NewRegistry()
	w := New("alice")
	w.SetObs(&obs.Obs{Registry: reg})
	cloned := reg.Counter("lb_workspace_snapshot_relations_cloned_total", "")
	if err := w.LoadProgram(`a(1). b(1). b(2).`); err != nil {
		t.Fatal(err)
	}
	s1 := w.Snapshot()
	if rows, err := s1.Query("b(1)"); err != nil || len(rows) != 1 {
		t.Fatalf("b(1): %v rows=%d", err, len(rows))
	}
	before := cloned.Value()
	if err := w.Update(func(tx *Tx) error { return tx.Assert("a(2)") }); err != nil {
		t.Fatal(err)
	}
	s2 := w.Snapshot()
	a1, _ := s1.db.Get("a")
	a2, _ := s2.db.Get("a")
	b1, _ := s1.db.Get("b")
	b2, _ := s2.db.Get("b")
	if a1 == a2 || a2.Len() != 2 {
		t.Fatalf("flushed relation a was not republished")
	}
	if b1 != b2 {
		t.Fatalf("untouched relation b was re-cloned")
	}
	if d := cloned.Value() - before; d != 1 {
		t.Fatalf("flush touching only a cloned %d relations, want 1", d)
	}
	before = cloned.Value()
	w.SetLimits(datalog.Limits{Gas: 1 << 20}, datalog.Limits{})
	s3 := w.Snapshot()
	w.SetObs(&obs.Obs{Registry: reg})
	s4 := w.Snapshot()
	if s3 == s2 || s4 == s3 {
		t.Fatalf("SetLimits and SetObs must republish the snapshot")
	}
	if d := cloned.Value() - before; d != 0 {
		t.Fatalf("SetLimits and SetObs cloned %d relations, want 0", d)
	}
}
