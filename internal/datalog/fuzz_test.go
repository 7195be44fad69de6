package datalog

import (
	"strings"
	"testing"
)

// The parser is the system's outermost attack surface: programs arrive
// over the network (say, assert) and from user files, so arbitrary bytes
// must produce a positioned SyntaxError, never a panic. Run with
// `go test -run Fuzz` for the seed corpus or `go test -fuzz FuzzParseRule`
// to explore.

func FuzzParseRule(f *testing.F) {
	seeds := []string{
		`p(X) <- q(X).`,
		`p(a,b).`,
		`fail() <- bad(X), !ok(X).`,
		`says(me, bob, [| greeting(hello). |]).`,
		`t(C,N) <- agg<<N = count(U)>> q(C,U).`,
		`export[U1](U2,R,S) <- says(me,U2,R), rsasign(R,S,K).`,
		`d(X,N-1) <- d(X,N), N > 0.`,
		`active([| active(R) <- says(U, me, R), R = [| P(T*) <- A*. |]. |]) <- delegates(me, U, P).`,
		`p(X) <-`,
		`p(X <- q(X).`,
		`p("unterminated`,
		`[| nested [| deep [| deeper |] |] |]`,
		"p(\x00\xff).",
		`p(X) <- q(X); r(X), s(X).`,
		`p(X) <- q(X), X < -1.`,
		`p(X) <- q(X), X <= -1.`,
		`p(X) <- q(X), X > -1.`,
		`p(X) <- q(X), X >= -1.`,
		`p(X) <- q(X), X = -1.`,
		`p(X) <- q(X), X != -1.`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := ParseClause(src) // must never panic
		if err != nil {
			return
		}
		// The canonical rendering is a rule's wire identity (signatures
		// sign it, the WAL stores it), so whatever parses must
		// canonicalize, re-parse, and re-canonicalize to the same bytes.
		text := canonRule(r)
		back, err := ParseClause(text)
		if err != nil {
			t.Fatalf("canonical text %q (from %q) does not re-parse: %v", text, src, err)
		}
		if again := canonRule(back); again != text {
			t.Fatalf("canonical form not stable: %q -> %q", text, again)
		}
	})
}

// fuzzValue builds one value of each kind from fuzzed primitives.
// PartRef predicates are stripped of brackets: canonical keys delimit the
// partition argument with "[...]", so bracket-free predicates keep Key()
// injective over this value space (the parser enforces the same for real
// programs), which is what lets the fuzz target require that equal keys
// imply equal hashes.
func fuzzValue(kind uint8, s string, n int64) Value {
	switch kind % 6 {
	case 0:
		return String(s)
	case 1:
		return Int(n)
	case 2:
		return Sym(s)
	case 3:
		return Entity{Sort: strings.ReplaceAll(s, ":", "_"), ID: n}
	case 4:
		pred := strings.Map(func(r rune) rune {
			if r == '[' || r == ']' {
				return -1
			}
			return r
		}, s)
		return PartRef{Pred: pred, Arg: Int(n)}
	default:
		return Code{} // zero Code: no rule, empty canonical form
	}
}

// FuzzTupleHash checks the storage engine's identity contract on
// adversarial values (NUL bytes, invalid UTF-8, empty strings): Hash()
// and Key() never panic, hashing is deterministic, equal canonical keys
// imply equal hashes (storage replaced string keys with hashes — a value
// pair agreeing on Key but not Hash would make the new engine disagree
// with the old one), and ValueEqual/Tuple.Equal agree with Key equality.
func FuzzTupleHash(f *testing.F) {
	f.Add(uint8(0), "hello", int64(1), uint8(1), "hello", int64(1))
	f.Add(uint8(2), "sym", int64(0), uint8(2), "sym", int64(0))
	f.Add(uint8(3), "node:1", int64(9), uint8(3), "node_1", int64(9))
	f.Add(uint8(4), "box[x]", int64(-1), uint8(4), "box", int64(-1))
	f.Add(uint8(5), "", int64(0), uint8(5), "\x00\xff", int64(1<<62))
	f.Fuzz(func(t *testing.T, k1 uint8, s1 string, n1 int64, k2 uint8, s2 string, n2 int64) {
		v1 := fuzzValue(k1, s1, n1)
		v2 := fuzzValue(k2, s2, n2)
		// Never panics, and hashing is a pure function of the value.
		if v1.Hash() != fuzzValue(k1, s1, n1).Hash() {
			t.Fatalf("hash of %v not deterministic", v1)
		}
		if ValueEqual(v1, v2) != (v1.Key() == v2.Key()) {
			t.Fatalf("ValueEqual(%v, %v) = %v disagrees with Key equality", v1, v2, ValueEqual(v1, v2))
		}
		if v1.Key() == v2.Key() && v1.Hash() != v2.Hash() {
			t.Fatalf("%v and %v share a key but not a hash", v1, v2)
		}
		if CompareValues(v1, v2) == 0 != (v1.Key() == v2.Key()) {
			t.Fatalf("CompareValues(%v, %v) disagrees with Key equality", v1, v2)
		}
		t1 := TupleOf([]Value{v1, v2})
		t2 := TupleOf([]Value{fuzzValue(k1, s1, n1), fuzzValue(k2, s2, n2)})
		if t1.Hash() != t2.Hash() || !t1.Equal(t2) {
			t.Fatalf("identically built tuples disagree: %v vs %v", t1, t2)
		}
		if swapped := TupleOf([]Value{v2, v1}); t1.Key() == swapped.Key() != t1.Equal(swapped) {
			t.Fatalf("Tuple.Equal disagrees with Key equality for %v vs %v", t1, swapped)
		}
	})
}

func FuzzParseProgram(f *testing.F) {
	seeds := []string{
		"edge(a,b).\npath(X,Y) <- edge(X,Y).\npath(X,Z) <- edge(X,Y), path(Y,Z).",
		"says0: says(U1,U2,R) -> prin(U1), prin(U2), rule(R).",
		"% comment only\n",
		"p(X) -> q(X); r(X).",
		"b0: box[U1](U2,M) -> prin(U1), prin(U2).\ninbox(U,M) <- box[me](U,M).",
		"p(_) <- q(X).",
		"fail().",
		"p(X) <- q(X), !q(X",
		"\x00\x01\x02",
		strings.Repeat("p(a). ", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseProgram(src) // must never panic
		if err != nil {
			return
		}
		// Every parsed clause must canonicalize and re-parse cleanly.
		for _, r := range prog.Rules {
			if _, err := ParseClause(canonRule(r)); err != nil {
				t.Fatalf("rule %q does not re-parse: %v", canonRule(r), err)
			}
		}
		for _, c := range prog.Constraints {
			if _, err := ParseProgram(c.String()); err != nil {
				t.Fatalf("constraint %q does not re-parse: %v", c.String(), err)
			}
		}
	})
}
