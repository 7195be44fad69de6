package workspace

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"lbtrust/internal/datalog"
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
	if s3.Version() <= s1.Version() {
		t.Fatalf("version must advance: %d -> %d", s1.Version(), s3.Version())
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
