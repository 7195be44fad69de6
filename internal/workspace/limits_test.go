package workspace

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"lbtrust/internal/datalog"
)

// dumpState renders every relation of the workspace, sorted, so tests can
// assert a failed request left the state byte-identical.
func dumpState(w *Workspace) string {
	names := w.DB().Names()
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		for _, t := range w.Facts(name) {
			fmt.Fprintf(&b, "%s%s\n", name, t.Key())
		}
	}
	return b.String()
}

// loadFacts asserts n unary a-facts.
func loadFacts(t *testing.T, w *Workspace, n int) {
	t.Helper()
	if err := w.Update(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			if err := tx.Assert(fmt.Sprintf("a(s%03d)", i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("loading facts: %v", err)
	}
}

func TestQueryLimitTrips(t *testing.T) {
	w := New("alice")
	loadFacts(t, w, 200)
	w.SetLimits(datalog.Limits{Gas: 50}, datalog.Limits{})
	if _, err := w.Query("a(X)"); datalog.ErrCode(err) != datalog.CodeLimitGas {
		t.Fatalf("locked query err = %v, want %s", err, datalog.CodeLimitGas)
	}
	// The budget is per-request: a cheap query right after still works.
	if rows, err := w.Query("a(s001)"); err != nil || len(rows) != 1 {
		t.Fatalf("point query after trip: %v rows=%d", err, len(rows))
	}
}

func TestSnapshotQueryLimitTrips(t *testing.T) {
	w := New("alice")
	loadFacts(t, w, 200)
	before := w.Snapshot()
	w.SetLimits(datalog.Limits{Gas: 50}, datalog.Limits{})
	snap := w.Snapshot()
	if snap == before {
		t.Fatal("SetLimits must republish the snapshot")
	}
	if _, err := snap.Query("a(X)"); datalog.ErrCode(err) != datalog.CodeLimitGas {
		t.Fatalf("snapshot query err = %v, want %s", err, datalog.CodeLimitGas)
	}
	if _, st, err := snap.QueryStats("a(X)"); datalog.ErrCode(err) != datalog.CodeLimitGas || st.Gas <= 0 {
		t.Fatalf("snapshot QueryStats err = %v gas = %d, want %s with gas counted", err, st.Gas, datalog.CodeLimitGas)
	}
	// Snapshots published before SetLimits keep their unlimited view.
	if rows, err := before.Query("a(X)"); err != nil || len(rows) != 200 {
		t.Fatalf("pre-limit snapshot: %v rows=%d", err, len(rows))
	}
}

func TestFlushBudgetTripsAndRollsBack(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`
		prod: p(X,Y) <- a(X), a(Y).
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	loadFacts(t, w, 20) // 400 derived p tuples, well under any limit here
	pre := dumpState(w)

	w.SetLimits(datalog.Limits{}, datalog.Limits{Gas: 200})
	err := w.Update(func(tx *Tx) error {
		for i := 0; i < 50; i++ {
			if err := tx.Assert(fmt.Sprintf("a(t%03d)", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if datalog.ErrCode(err) != datalog.CodeLimitGas {
		t.Fatalf("flush err = %v, want %s", err, datalog.CodeLimitGas)
	}
	if got := dumpState(w); got != pre {
		t.Fatalf("tripped flush did not roll back byte-identically:\npre:\n%s\npost:\n%s", pre, got)
	}
	// The rollback rebuild itself must not be budgeted: the pre-state
	// fixpoint (400 p tuples) needs far more than 200 gas to recompute,
	// and dumpState above proved it was recomputed in full.
	// A small write under the same budget still succeeds afterwards.
	w.SetLimits(datalog.Limits{}, datalog.Limits{Gas: 1 << 20})
	if err := w.Update(func(tx *Tx) error { return tx.Assert("a(u000)") }); err != nil {
		t.Fatalf("benign write after trip: %v", err)
	}
}

func TestFlushTupleCapRollsBack(t *testing.T) {
	w := New("alice")
	if err := w.LoadProgram(`prod: p(X,Y) <- a(X), a(Y).`); err != nil {
		t.Fatalf("load: %v", err)
	}
	w.SetLimits(datalog.Limits{}, datalog.Limits{Tuples: 100})
	pre := dumpState(w)
	err := w.Update(func(tx *Tx) error {
		for i := 0; i < 30; i++ { // 900 products > 100-tuple cap
			if err := tx.Assert(fmt.Sprintf("a(s%03d)", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if datalog.ErrCode(err) != datalog.CodeLimitTuples {
		t.Fatalf("flush err = %v, want %s", err, datalog.CodeLimitTuples)
	}
	if got := dumpState(w); got != pre {
		t.Fatalf("state after tripped flush differs:\n%s\nvs\n%s", pre, got)
	}
}

func TestUnboundedRecursionTripsAtFlush(t *testing.T) {
	// The paper's dd3-style depth rule without its bounding comparison:
	// every flush touching d would run forever. The gas budget turns the
	// hang into a typed error and the workspace stays usable.
	w := New("alice")
	if err := w.LoadProgram(`
		grow: d(X, N+1) <- d(X, N), step(X).
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	w.SetLimits(datalog.Limits{}, datalog.Limits{Gas: 10000})
	pre := dumpState(w)
	err := w.Update(func(tx *Tx) error {
		if err := tx.Assert("step(x)"); err != nil {
			return err
		}
		return tx.Assert("d(x, 0)")
	})
	if datalog.ErrCode(err) != datalog.CodeLimitGas {
		t.Fatalf("runaway recursion err = %v, want %s", err, datalog.CodeLimitGas)
	}
	if got := dumpState(w); got != pre {
		t.Fatalf("runaway flush not rolled back")
	}
	// The workspace still answers queries and takes unrelated writes.
	if err := w.Update(func(tx *Tx) error { return tx.Assert("ok(yes)") }); err != nil {
		t.Fatalf("write after runaway: %v", err)
	}
	if rows, err := w.Query("ok(X)"); err != nil || len(rows) != 1 {
		t.Fatalf("query after runaway: %v rows=%d", err, len(rows))
	}
}

func TestLoadProgramTripRollsBackWholeLoad(t *testing.T) {
	w := New("alice")
	w.SetLimits(datalog.Limits{}, datalog.Limits{Tuples: 50})
	src := "prod: p(X,Y) <- a(X), a(Y).\n"
	for i := 0; i < 30; i++ {
		src += fmt.Sprintf("a(s%03d).\n", i)
	}
	pre := dumpState(w)
	if err := w.LoadProgram(src); datalog.ErrCode(err) != datalog.CodeLimitTuples {
		t.Fatalf("load err = %v, want %s", datalog.ErrCode(err), datalog.CodeLimitTuples)
	}
	if got := dumpState(w); got != pre {
		t.Fatalf("failed load left state behind:\n%s", got)
	}
}
