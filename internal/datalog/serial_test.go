package datalog

import (
	"testing"
)

func TestValueEncodingRoundTrip(t *testing.T) {
	code := NewCode(MustParseClause(`says(alice, bob, [| access(P, o1, "read\nwrite"). |]).`))
	values := []Value{
		Sym("alice"),
		Sym("rsa:priv:alice"),
		String("hello\tworld\nline"),
		String(""),
		Int(-42),
		Int(0),
		Entity{Sort: "atom", ID: 17},
		Entity{Sort: "term", ID: 9},
		code,
		PartRef{Pred: "export", Arg: Sym("bob")},
		PartRef{Pred: "box", Arg: PartRef{Pred: "inner", Arg: Int(3)}},
	}
	for _, v := range values {
		enc := EncodeValue(v)
		got, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("DecodeValue(%q): %v", enc, err)
		}
		if got.Key() != v.Key() {
			t.Errorf("round trip of %s: got %s, want %s", enc, got.Key(), v.Key())
		}
		if got.Kind() != v.Kind() {
			t.Errorf("round trip of %s: kind %v, want %v", enc, got.Kind(), v.Kind())
		}
	}
	tup := TupleOf(values)
	line := EncodeTupleLine(tup)
	back, err := DecodeTupleLine(line)
	if err != nil {
		t.Fatalf("DecodeTupleLine: %v", err)
	}
	if back.Key() != tup.Key() {
		t.Errorf("tuple round trip: got %q, want %q", back.Key(), tup.Key())
	}
	if empty, err := DecodeTupleLine(EncodeTupleLine(NewTuple())); err != nil || empty.Len() != 0 {
		t.Errorf("empty tuple round trip: %v, len %d", err, empty.Len())
	}
}

func TestValueDecodingRejectsCorruptInput(t *testing.T) {
	for _, bad := range []string{
		"", "q\"x\"", "y", "yalice", `y"alice`, "i", "inotanint", "e\"atom\"",
		"e\"atom\"x", `c"says(X"`, `c"not a ( clause"`, `p"export"`, `y"a"y"b"`,
	} {
		if v, err := DecodeValue(bad); err == nil {
			t.Errorf("DecodeValue(%q) = %v, want error", bad, v)
		}
	}
	if _, err := DecodeTupleLine("y\"a\"\tzzz"); err == nil {
		t.Error("DecodeTupleLine with corrupt column decoded")
	}
}

func TestCanonicalConstraintRoundTrip(t *testing.T) {
	srcs := []string{
		`exp0: export[U1](U2,R,S) -> prin(U1), prin(U2).`,
		`msg(M,U) -> registered(U).`,
		`p(X) -> q(X); r(X, "lit\n").`,
		`says(S, me, R), !muted(S) -> trusted(S).`,
		`decl(X) -> .`,
	}
	for _, src := range srcs {
		prog, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		for _, c := range prog.Constraints {
			canon := CanonicalConstraint(c)
			back, err := ParseConstraint(canon, c.Label)
			if err != nil {
				t.Fatalf("reparse %q (from %q): %v", canon, src, err)
			}
			if got := CanonicalConstraint(back); got != canon {
				t.Errorf("constraint %q not stable: %q -> %q", src, canon, got)
			}
			if back.Label != c.Label {
				t.Errorf("label lost: %q vs %q", back.Label, c.Label)
			}
		}
	}
}

// TestCanonicalComparisonNegativeText pins the canonical text of a
// comparison against a negative constant. Only "<" gains a space (fused,
// "<-" lexes as the rule arrow); every other operator's text, and so
// every signature over it, stays byte-identical. FuzzParseRule's seeds
// check that each of these texts re-parses to itself.
func TestCanonicalComparisonNegativeText(t *testing.T) {
	for _, op := range []string{"<", "<=", ">", ">=", "=", "!="} {
		want := "p(V0)<-q(V0),V0" + op + "-1."
		if op == "<" {
			want = "p(V0)<-q(V0),V0< -1."
		}
		if got := canonRule(MustParseClause("p(X) <- q(X), X " + op + " -1.")); got != want {
			t.Errorf("%s: canonical text %q, want %q", op, got, want)
		}
	}
}
