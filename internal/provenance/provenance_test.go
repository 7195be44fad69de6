package provenance

import (
	"strings"
	"testing"

	"lbtrust/internal/datalog"
)

func tup(vals ...datalog.Value) datalog.Tuple { return datalog.NewTuple(vals...) }

func sym(s string) datalog.Value { return datalog.Sym(s) }

func mkRule(t *testing.T, src string) *datalog.Rule {
	t.Helper()
	r, err := datalog.ParseClause(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return r
}

func TestRecordAndExplain(t *testing.T) {
	s := NewStore(0)
	r := mkRule(t, "tc: path(X, Z) <- edge(X, Y), path(Y, Z).")
	prem := []datalog.Premise{
		{Pred: "edge", Tuple: tup(sym("a"), sym("b"))},
		{Pred: "path", Tuple: tup(sym("b"), sym("c"))},
	}
	s.Record("path", tup(sym("a"), sym("c")), r, prem)

	p := s.Explain("path", tup(sym("a"), sym("c")))
	if p == nil || p.Rule == nil || p.Rule.Label != "tc" {
		t.Fatalf("expected a derived proof via rule tc, got %+v", p)
	}
	if len(p.Premises) != 2 {
		t.Fatalf("expected 2 premises, got %d", len(p.Premises))
	}
	for _, prem := range p.Premises {
		if !prem.Base {
			t.Errorf("premise %s%s should be a base leaf", prem.Pred, prem.Tuple.String())
		}
	}
	if r := p.Render(); !strings.Contains(r, "[rule tc]") || !strings.Contains(r, "[base fact]") {
		t.Errorf("render missing rule label or base leaf:\n%s", r)
	}
}

func TestRecordDedups(t *testing.T) {
	s := NewStore(0)
	r := mkRule(t, "tc: path(X, Z) <- edge(X, Y), path(Y, Z).")
	prem := []datalog.Premise{{Pred: "edge", Tuple: tup(sym("a"), sym("b"))}}
	head := tup(sym("a"), sym("b"))
	// Fixpoint iteration re-fires Observe with the same instantiation.
	s.Record("path", head, r, prem)
	_, used1, _, _ := s.Stats()
	s.Record("path", head, r, prem)
	_, used2, _, _ := s.Stats()
	if used1 != used2 {
		t.Fatalf("duplicate recording changed accounting: %d != %d", used1, used2)
	}
	if ds := s.Derivations("path", head); len(ds) != 1 {
		t.Fatalf("expected 1 deduped derivation, got %d", len(ds))
	}
}

// TestRecordCopiesScratchPremises guards the Observe contract: premises
// is the evaluator's scratch slice, overwritten by the next
// instantiation, so Record must keep its own copy.
func TestRecordCopiesScratchPremises(t *testing.T) {
	s := NewStore(0)
	r := mkRule(t, "tc: path(X, Z) <- edge(X, Y), path(Y, Z).")
	head := tup(sym("a"), sym("c"))
	scratch := []datalog.Premise{
		{Pred: "edge", Tuple: tup(sym("a"), sym("b"))},
		{Pred: "path", Tuple: tup(sym("b"), sym("c"))},
	}
	s.Record("path", head, r, scratch)
	scratch[0] = datalog.Premise{Pred: "edge", Tuple: tup(sym("x"), sym("y"))}
	scratch[1] = datalog.Premise{Pred: "bogus", Tuple: tup(sym("y"), sym("z"))}

	ds := s.Derivations("path", head)
	if len(ds) != 1 {
		t.Fatalf("expected 1 derivation, got %d", len(ds))
	}
	got := ds[0].Premises
	if len(got) != 2 || got[0].Pred != "edge" || !got[0].Tuple.Equal(tup(sym("a"), sym("b"))) ||
		got[1].Pred != "path" || !got[1].Tuple.Equal(tup(sym("b"), sym("c"))) {
		t.Fatalf("stored premises changed with the caller's slice: %+v", got)
	}
}

func TestMemCapDropsAndMarksTruncated(t *testing.T) {
	s := NewStore(1) // everything over budget
	r := mkRule(t, "tc: path(X, Z) <- edge(X, Y), path(Y, Z).")
	head := tup(sym("a"), sym("c"))
	s.Record("path", head, r, []datalog.Premise{{Pred: "edge", Tuple: tup(sym("a"), sym("b"))}})
	if _, _, _, dropped := s.Stats(); dropped != 1 {
		t.Fatalf("expected 1 dropped derivation, got %d", dropped)
	}
	p := s.Explain("path", head)
	if !p.Truncated {
		t.Fatalf("proof of a dropped derivation should be marked truncated: %+v", p)
	}
}

func TestRemoteLeafSurvivesReset(t *testing.T) {
	s := NewStore(0)
	r := mkRule(t, "tc: path(X, Z) <- edge(X, Y), path(Y, Z).")
	remote := tup(sym("alice"), sym("bob"))
	s.RecordRemote("export", remote, Remote{Node: "n1", Sender: "alice", Trace: "deadbeefcafef00d"})
	s.Record("path", tup(sym("a"), sym("c")), r, []datalog.Premise{{Pred: "edge", Tuple: tup(sym("a"), sym("b"))}})

	// Second delivery never overwrites the first origin.
	s.RecordRemote("export", remote, Remote{Node: "n2", Sender: "mallory"})
	if origin, ok := s.RemoteOrigin("export", remote); !ok || origin.Node != "n1" {
		t.Fatalf("first delivery should win, got %+v ok=%v", origin, ok)
	}

	s.ResetDerivations()
	if ds := s.Derivations("path", tup(sym("a"), sym("c"))); len(ds) != 0 {
		t.Fatalf("derivations should be gone after reset, got %d", len(ds))
	}
	origin, ok := s.RemoteOrigin("export", remote)
	if !ok || origin.Sender != "alice" || origin.Trace != "deadbeefcafef00d" {
		t.Fatalf("remote leaf should survive reset, got %+v ok=%v", origin, ok)
	}
	p := s.Explain("export", remote)
	if p.Remote == nil || p.Remote.Node != "n1" {
		t.Fatalf("explain should answer the remote origin, got %+v", p)
	}
	if r := p.Render(); !strings.Contains(r, "from node n1") || !strings.Contains(r, "trace deadbeefcafef00d") {
		t.Errorf("render missing origin details:\n%s", r)
	}
}

func TestCycleGuard(t *testing.T) {
	s := NewStore(0)
	r := mkRule(t, "loop: p(X) <- p(X).")
	head := tup(sym("a"))
	s.Record("p", head, r, []datalog.Premise{{Pred: "p", Tuple: head}})
	p := s.Explain("p", head)
	if p.Rule == nil || len(p.Premises) != 1 || !p.Premises[0].Cycle {
		t.Fatalf("recursive derivation should bottom out in a cycle leaf, got %+v", p)
	}
	if r := p.Render(); !strings.Contains(r, "(seen above)") {
		t.Errorf("render missing cycle marker:\n%s", r)
	}
}

func TestNilStoreIsDisabled(t *testing.T) {
	var s *Store
	r := mkRule(t, "tc: p(X) <- q(X).")
	head := tup(sym("a"))
	s.Record("p", head, r, nil)
	s.RecordRemote("p", head, Remote{})
	s.ResetDerivations()
	if s.Explain("p", head) != nil {
		t.Fatal("nil store should explain nothing")
	}
	if ds := s.Derivations("p", head); ds != nil {
		t.Fatal("nil store should hold nothing")
	}
	if _, ok := s.RemoteOrigin("p", head); ok {
		t.Fatal("nil store should have no origins")
	}
	if facts, used, limit, dropped := s.Stats(); facts != 0 || used != 0 || limit != 0 || dropped != 0 {
		t.Fatal("nil store stats should be zero")
	}
}

func TestSortProofsDeterministic(t *testing.T) {
	ps := []*Proof{
		{Pred: "b", Tuple: tup(sym("x"))},
		{Pred: "a", Tuple: tup(sym("y"))},
		{Pred: "a", Tuple: tup(sym("x"))},
	}
	SortProofs(ps)
	if ps[0].Pred != "a" || ps[0].Tuple.At(0) != sym("x") || ps[2].Pred != "b" {
		t.Fatalf("unexpected order: %v %v %v", ps[0], ps[1], ps[2])
	}
}
