package datalog

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refModel is the reference implementation the storage engine is checked
// against: the map-of-canonical-key-strings design the chunked engine
// replaced. Set semantics are defined by Tuple.Key() equality.
type refModel map[string]Tuple

func (m refModel) insert(t Tuple) bool {
	k := t.Key()
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = t
	return true
}

func (m refModel) delete(t Tuple) bool {
	k := t.Key()
	if _, ok := m[k]; !ok {
		return false
	}
	delete(m, k)
	return true
}

func (m refModel) clone() refModel {
	c := make(refModel, len(m))
	for k, t := range m {
		c[k] = t
	}
	return c
}

func (m refModel) sortedKeys() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// randomTuple draws from small value pools so inserts and deletes hit
// existing rows often and every value kind appears.
func randomTuple(rng *rand.Rand, arity int) Tuple {
	vs := make([]Value, arity)
	for i := range vs {
		switch rng.Intn(5) {
		case 0:
			vs[i] = Sym(fmt.Sprintf("sym%d", rng.Intn(12)))
		case 1:
			vs[i] = Int(rng.Intn(12) - 4)
		case 2:
			vs[i] = String(fmt.Sprintf("s%d", rng.Intn(8)))
		case 3:
			vs[i] = Entity{Sort: "node", ID: int64(rng.Intn(8))}
		default:
			vs[i] = PartRef{Pred: "p", Arg: Sym(fmt.Sprintf("a%d", rng.Intn(6)))}
		}
	}
	return TupleOf(vs)
}

func checkAgainstModel(t *testing.T, tag string, rel *Relation, model refModel) {
	t.Helper()
	if rel.Len() != len(model) {
		t.Fatalf("%s: Len() = %d, model has %d", tag, rel.Len(), len(model))
	}
	got := rel.Sorted()
	gotKeys := make([]string, len(got))
	for i, tu := range got {
		gotKeys[i] = tu.Key()
	}
	// Sorted() must be sorted per CompareTuples and contain exactly the
	// model's tuples, each exactly once.
	for i := 1; i < len(got); i++ {
		if CompareTuples(got[i-1], got[i]) >= 0 {
			t.Fatalf("%s: Sorted() out of order at %d: %v >= %v", tag, i, got[i-1], got[i])
		}
	}
	wantKeys := model.sortedKeys()
	sort.Strings(gotKeys)
	if strings.Join(gotKeys, "\n") != strings.Join(wantKeys, "\n") {
		t.Fatalf("%s: contents diverge\n got: %v\nwant: %v", tag, gotKeys, wantKeys)
	}
	for _, tu := range model {
		if !rel.Contains(tu) {
			t.Fatalf("%s: Contains(%v) = false for model tuple", tag, tu)
		}
	}
}

func checkMatch(t *testing.T, tag string, rng *rand.Rand, rel *Relation, model refModel, arity int) {
	t.Helper()
	probe := randomTuple(rng, arity)
	bound := make([]Value, arity)
	for i := 0; i < arity; i++ {
		if rng.Intn(2) == 0 {
			bound[i] = probe.At(i)
		}
	}
	got := map[string]bool{}
	rel.MatchEach(bound, func(tu Tuple) bool {
		got[tu.Key()] = true
		return true
	})
	want := map[string]bool{}
	for _, tu := range model {
		ok := true
		for i, v := range bound {
			if v != nil && !ValueEqual(tu.At(i), v) {
				ok = false
				break
			}
		}
		if ok {
			want[tu.Key()] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: MatchEach(%v) returned %d rows, model says %d", tag, bound, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s: MatchEach(%v) missed %s", tag, bound, k)
		}
	}
}

// runRelationModelScript drives the relation and the reference model
// through one randomized script of inserts, deletes, matches, clones,
// freezes, and clears, checking agreement throughout. Clones fork both
// sides, so copy-on-write sharing is exercised with mutations landing on
// both parents and children.
func runRelationModelScript(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	const arity = 3
	type pair struct {
		rel    *Relation
		model  refModel
		frozen bool
	}
	pairs := []*pair{{rel: NewRelation("r", arity), model: refModel{}}}
	for step := 0; step < steps; step++ {
		p := pairs[rng.Intn(len(pairs))]
		tag := fmt.Sprintf("seed %d step %d", seed, step)
		switch op := rng.Intn(100); {
		case op < 40: // insert
			if p.frozen {
				continue
			}
			tu := randomTuple(rng, arity)
			if got, want := p.rel.Insert(tu), p.model.insert(tu); got != want {
				t.Fatalf("%s: Insert(%v) = %v, model says %v", tag, tu, got, want)
			}
		case op < 65: // delete (random tuple, often absent; sometimes a live row)
			if p.frozen {
				continue
			}
			tu := randomTuple(rng, arity)
			if rng.Intn(2) == 0 && p.rel.Len() > 0 {
				all := p.rel.All()
				tu = all[rng.Intn(len(all))]
			}
			if got, want := p.rel.Delete(tu), p.model.delete(tu); got != want {
				t.Fatalf("%s: Delete(%v) = %v, model says %v", tag, tu, got, want)
			}
		case op < 80: // match
			checkMatch(t, tag, rng, p.rel, p.model, arity)
		case op < 90: // clone
			if len(pairs) < 6 {
				pairs = append(pairs, &pair{rel: p.rel.Clone(), model: p.model.clone()})
			}
		case op < 95: // freeze
			p.rel.Freeze()
			p.frozen = true
		case op < 97: // clear
			if p.frozen {
				continue
			}
			p.rel.Clear()
			p.model = refModel{}
		default: // full equivalence check mid-script
			checkAgainstModel(t, tag, p.rel, p.model)
		}
	}
	for i, p := range pairs {
		checkAgainstModel(t, fmt.Sprintf("seed %d final pair %d", seed, i), p.rel, p.model)
	}
}

func TestRelationModelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runRelationModelScript(t, seed, 4000)
	}
}

// TestRelationForcedCollisions reruns the equivalence script with a
// degenerate tuple hash (two buckets for everything), proving the
// open-addressing collision handling preserves set semantics when the
// hash carries almost no information.
func TestRelationForcedCollisions(t *testing.T) {
	testTupleHash = func(vs []Value) uint64 {
		return uint64(len(vs) % 2)
	}
	defer func() { testTupleHash = nil }()
	for seed := int64(100); seed <= 103; seed++ {
		runRelationModelScript(t, seed, 800)
	}
}

// TestRelationCloneCopyOnWrite pins the storage-sharing contract: a clone
// is O(1), mutating one side never shows through on the other, and a
// mutation after a clone dirties exactly one chunk, not the relation.
func TestRelationCloneCopyOnWrite(t *testing.T) {
	const n = 10 * chunkCap
	r := NewRelation("cow", 2)
	for i := 0; i < n; i++ {
		r.Insert(NewTuple(Int(i), Sym("x")))
	}
	c := r.Clone()
	if got := c.Stats(); got.OwnedChunks != 0 {
		t.Fatalf("fresh clone owns %d chunks, want 0 (all shared)", got.OwnedChunks)
	}
	if got := r.Stats(); got.OwnedChunks != 0 {
		t.Fatalf("parent still owns %d chunks after clone, want 0", got.OwnedChunks)
	}

	// One insert into the clone dirties only the tail chunk.
	c.Insert(NewTuple(Int(n), Sym("x")))
	if got := c.Stats(); got.OwnedChunks != 1 {
		t.Fatalf("clone owns %d chunks after one insert, want 1", got.OwnedChunks)
	}
	if r.Contains(NewTuple(Int(n), Sym("x"))) {
		t.Fatal("insert into clone visible in parent")
	}

	// One delete from the parent dirties only the containing chunk.
	r.Delete(NewTuple(Int(3), Sym("x")))
	if got := r.Stats(); got.OwnedChunks != 1 {
		t.Fatalf("parent owns %d chunks after one delete, want 1", got.OwnedChunks)
	}
	if !c.Contains(NewTuple(Int(3), Sym("x"))) {
		t.Fatal("delete in parent visible in clone")
	}
	if r.Len() != n-1 || c.Len() != n+1 {
		t.Fatalf("Len: parent %d (want %d), clone %d (want %d)", r.Len(), n-1, c.Len(), n+1)
	}
}

// TestRelationFrozenPanics pins the immutability contract for published
// snapshot relations.
func TestRelationFrozenPanics(t *testing.T) {
	r := NewRelation("f", 1)
	r.Insert(NewTuple(Sym("a")))
	r.Freeze()
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"insert", func() { r.Insert(NewTuple(Sym("b"))) }},
		{"delete", func() { r.Delete(NewTuple(Sym("a"))) }},
		{"clear", func() { r.Clear() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on frozen relation did not panic", tc.name)
				}
			}()
			tc.op()
		}()
	}
	// Clone of a frozen relation is mutable and leaves the original alone.
	c := r.Clone()
	c.Insert(NewTuple(Sym("b")))
	if r.Len() != 1 || c.Len() != 2 {
		t.Fatalf("frozen original changed: r.Len()=%d c.Len()=%d", r.Len(), c.Len())
	}
}

// TestRelationPublished: Published hands out the same frozen copy until
// a mutation that changes the relation (new tuple, present tuple
// deleted, Clear); no-op writes and Clone keep it.
func TestRelationPublished(t *testing.T) {
	r := NewRelation("p", 1)
	r.Insert(NewTuple(Sym("a")))
	first, fresh := r.Published()
	if !fresh || first.Len() != 1 {
		t.Fatalf("first Published: fresh=%v len=%d, want a fresh 1-tuple copy", fresh, first.Len())
	}
	keep := func(step string) {
		t.Helper()
		if got, fresh := r.Published(); fresh || got != first {
			t.Fatalf("after %s: Published re-cloned", step)
		}
	}
	keep("nothing")
	r.Insert(NewTuple(Sym("a")))
	keep("a duplicate insert")
	r.Delete(NewTuple(Sym("zz")))
	keep("deleting an absent tuple")
	r.Clone()
	keep("Clone")
	for _, tc := range []struct {
		name string
		op   func()
		want int
	}{
		{"insert", func() { r.Insert(NewTuple(Sym("b"))) }, 2},
		{"delete", func() { r.Delete(NewTuple(Sym("a"))) }, 1},
		{"clear", func() { r.Clear() }, 0},
	} {
		prev, _ := r.Published()
		tc.op()
		got, fresh := r.Published()
		if !fresh || got == prev || got.Len() != tc.want {
			t.Fatalf("after %s: fresh=%v same=%v len=%d, want a fresh copy of %d tuples", tc.name, fresh, got == prev, got.Len(), tc.want)
		}
	}
	if first.Len() != 1 || !first.Contains(NewTuple(Sym("a"))) {
		t.Fatalf("an earlier published copy changed: %v", first.Sorted())
	}
}

// TestRelationCompaction forces the tombstone threshold and checks the
// rebuilt relation is intact.
func TestRelationCompaction(t *testing.T) {
	r := NewRelation("c", 1)
	const n = 4 * chunkCap
	for i := 0; i < n; i++ {
		r.Insert(NewTuple(Int(i)))
	}
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			r.Delete(NewTuple(Int(i)))
		}
	}
	// Compaction bounds garbage: tombstones never exceed both the live
	// count and a chunk's worth of slots.
	if got := r.Stats(); got.Dead > got.Live && got.Dead >= chunkCap {
		t.Fatalf("compaction did not run: %d dead rows against %d live", got.Dead, got.Live)
	}
	if got := r.Stats(); got.Chunks >= 4 {
		t.Fatalf("chunks not reclaimed: %d chunks for %d live rows", got.Chunks, r.Len())
	}
	if r.Len() != n/4 {
		t.Fatalf("Len() = %d after deletes, want %d", r.Len(), n/4)
	}
	for i := 0; i < n; i++ {
		want := i%4 == 0
		if r.Contains(NewTuple(Int(i))) != want {
			t.Fatalf("Contains(%d) = %v after compaction, want %v", i, !want, want)
		}
	}
}

// TestMatchEachAllocs gates the bound-match hot path: once the column
// index exists, matching allocates nothing (the old implementation
// built a canonical key string per bound value per candidate row).
func TestMatchEachAllocs(t *testing.T) {
	r := NewRelation("m", 2)
	for i := 0; i < 2000; i++ {
		r.Insert(NewTuple(Sym(fmt.Sprintf("g%d", i%50)), Int(i)))
	}
	bound := []Value{Sym("g7"), nil}
	n := 0
	sink := func(tu Tuple) bool { n++; return true }
	r.MatchEach(bound, sink) // build the index outside the measurement
	if n != 40 {
		t.Fatalf("MatchEach matched %d rows, want 40", n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.MatchEach(bound, sink)
	})
	if allocs != 0 {
		t.Fatalf("MatchEach bound path allocates %v per run, want 0", allocs)
	}
}

// TestDatabaseRelArityMismatch pins the typed diagnostic for schema
// drift: accessing a stored relation at a conflicting arity panics with
// catalog code LB-ARITY-003 (see docs/DIAGNOSTICS.md).
func TestDatabaseRelArityMismatch(t *testing.T) {
	db := NewDatabase()
	db.Rel("edge", 2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Rel with conflicting arity did not panic")
		}
		ce, ok := r.(*CheckError)
		if !ok {
			t.Fatalf("panic value is %T, want *CheckError", r)
		}
		if ce.Code != CodeStoreArity {
			t.Fatalf("code = %s, want %s", ce.Code, CodeStoreArity)
		}
		const want = "LB-ARITY-003: predicate edge stored with arity 2 but accessed with arity 3"
		if ce.Error() != want {
			t.Fatalf("message = %q, want %q", ce.Error(), want)
		}
	}()
	db.Rel("edge", 3)
}
