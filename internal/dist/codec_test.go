package dist

import (
	"fmt"
	"testing"

	"lbtrust/internal/datalog"
	"lbtrust/internal/lbcrypto"
)

// parserDecodeTuple is the parser-based decoder that DecodeTuple
// replaced: parse the line as a fact and evaluate its ground arguments.
// It accepts a superset of the canonical grammar and serves as the
// differential oracle for the canonical scanner.
func parserDecodeTuple(line string) (datalog.Tuple, error) {
	clause, err := datalog.ParseClause(line + ".")
	if err != nil {
		return datalog.Tuple{}, err
	}
	if !clause.IsFact() {
		return datalog.Tuple{}, fmt.Errorf("wire line %q is not a fact", line)
	}
	args := clause.Heads[0].AllArgs()
	vs := make([]datalog.Value, len(args))
	for i, term := range args {
		v, ground, err := datalog.EvalGroundTerm(term)
		if err != nil {
			return datalog.Tuple{}, err
		}
		if !ground {
			return datalog.Tuple{}, fmt.Errorf("wire tuple %q has non-ground argument %d", line, i)
		}
		vs[i] = v
	}
	return datalog.TupleOf(vs), nil
}

// signedLines returns two real credential lines: one says statement
// exported under an HMAC tag and under an RSA signature, as the export
// rules of internal/core ship them.
func signedLines(tb testing.TB) (hmacLine, rsaLine string) {
	tb.Helper()
	ks := lbcrypto.NewKeyStore()
	if err := ks.GenerateRSA("alice"); err != nil {
		tb.Fatal(err)
	}
	priv, _ := ks.RSAKey("alice")
	code := datalog.NewCode(datalog.MustParseClause(
		`may(U,f1,read) <- member(U,staff), says(alice,bob,[| grant(U, "r|]w"). |]).`))
	rsaSig, err := ks.SignRSA(code, priv)
	if err != nil {
		tb.Fatal(err)
	}
	hmacSig := lbcrypto.SignHMAC(code, []byte("alice-bob secret"))
	return EncodeTuple(datalog.NewTuple(datalog.Sym("alice"), code, datalog.String(hmacSig))),
		EncodeTuple(datalog.NewTuple(datalog.Sym("alice"), code, datalog.String(rsaSig)))
}

func mustCode(src string) datalog.Code { return datalog.NewCode(datalog.MustParseClause(src)) }

// decodeCases are the canonical-decoder cases: want is the decoded tuple,
// or nil when the line must be rejected. narrowed marks lines the parser
// accepted but the canonical decoder rejects as non-canonical.
var decodeCases = []struct {
	line     string
	want     []datalog.Value
	narrowed bool
}{
	{line: `t()`, want: []datalog.Value{}},
	{line: `t(alice,bob)`, want: []datalog.Value{datalog.Sym("alice"), datalog.Sym("bob")}},
	{line: `t(Alice)`},
	{line: `t(_x)`},
	{line: `t(_)`},
	{line: `t(-5)`, want: []datalog.Value{datalog.Int(-5)}},
	{line: `t(0,42)`, want: []datalog.Value{datalog.Int(0), datalog.Int(42)}},
	{line: `t(9223372036854775808)`},
	{line: `t(- 5)`, narrowed: true},
	{line: `t( a )`, narrowed: true},
	{line: `t(1+2)`, narrowed: true},
	{line: `t((x))`, narrowed: true},
	{line: `t(a)/* comment */`, narrowed: true},
	{line: `u(a)`, narrowed: true},
	{line: `t(lb:entity:s:3)`, want: []datalog.Value{datalog.Sym("lb:entity:s:3")}},
	{line: `t(rsa:3:c1ebab5d)`, want: []datalog.Value{datalog.Sym("rsa:3:c1ebab5d")}},
	{line: `t(m2:_x)`},
	{line: `t(export[alice])`, want: []datalog.Value{datalog.PartRef{Pred: "export", Arg: datalog.Sym("alice")}}},
	{line: `t(p[q[-1]])`, want: []datalog.Value{datalog.PartRef{Pred: "p", Arg: datalog.PartRef{Pred: "q", Arg: datalog.Int(-1)}}}},
	{line: `t(export[X])`},
	{line: `t("|]\n")`, want: []datalog.Value{datalog.String("|]\n")}},
	{line: `t("\x61")`, want: []datalog.Value{datalog.String("a")}},
	{line: "t(\"\xff\")", want: []datalog.Value{datalog.String("�")}},
	{line: `t("open)`},
	{line: `t([|p([|q.|]).|])`},
	{line: `t([|p([|q(V0).|]).|])`, want: []datalog.Value{mustCode(`p([| q(X). |]).`)}},
	{line: `t([|p("|]").|],x)`, want: []datalog.Value{mustCode(`p("|]").`), datalog.Sym("x")}},
	{line: `t([|may(V0,f1,read)<-member(V0,staff).|])`, want: []datalog.Value{mustCode(`may(U,f1,read) <- member(U,staff).`)}},
	{line: `t([|p(V0)<-q(V0),V0< -1.|])`, want: []datalog.Value{mustCode(`p(X) <- q(X), X < -1.`)}},
	{line: `t([|p(V0)<-q(V0),V0<-1.|])`},
	{line: `t([| p(a). |])`, narrowed: true},
	{line: `t([|p(a)|])`, narrowed: true},
	{line: `t([|p((1+2)).|])`, narrowed: true},
	{line: `t([|p(a).`},
	{line: `t(a,)`},
	{line: `t(a))`},
	{line: `t(a`},
	{line: ``},
}

// TestDecodeTupleCases pins the canonical decoder's verdict on each case
// and checks it against the parser-based oracle.
func TestDecodeTupleCases(t *testing.T) {
	for _, c := range decodeCases {
		got, err := DecodeTuple(c.line)
		ref, refErr := parserDecodeTuple(c.line)
		switch {
		case c.want != nil:
			if err != nil {
				t.Errorf("DecodeTuple(%q): %v", c.line, err)
				continue
			}
			if want := datalog.TupleOf(c.want); !got.Equal(want) {
				t.Errorf("DecodeTuple(%q) = %v, want %v", c.line, got, want)
			}
			if refErr != nil || !ref.Equal(got) {
				t.Errorf("DecodeTuple(%q) = %v, parser gives %v (%v)", c.line, got, ref, refErr)
			}
		case err == nil:
			t.Errorf("DecodeTuple(%q) = %v, want an error", c.line, got)
		case c.narrowed != (refErr == nil):
			t.Errorf("DecodeTuple(%q) rejects; parser verdict %v (%v), narrowed = %v", c.line, ref, refErr, c.narrowed)
		}
	}
	hmacLine, rsaLine := signedLines(t)
	for _, line := range []string{hmacLine, rsaLine} {
		got, err := DecodeTuple(line)
		if err != nil {
			t.Fatalf("DecodeTuple(%q): %v", line, err)
		}
		if ref, err := parserDecodeTuple(line); err != nil || !ref.Equal(got) {
			t.Errorf("DecodeTuple(%q) = %v, parser gives %v (%v)", line, got, ref, err)
		}
		if EncodeTuple(got) != line {
			t.Errorf("re-encode of %q = %q", line, EncodeTuple(got))
		}
	}
}

// FuzzDecodeTupleMatchesParser checks the canonical scanner against the
// parser it replaced: on any line, either the scanner rejects it or both
// accept it with Equal tuples. The scanner may reject non-canonical input
// the parser accepts; it must never accept what the parser rejects, or
// decode a line to a different tuple.
func FuzzDecodeTupleMatchesParser(f *testing.F) {
	for _, c := range decodeCases {
		f.Add(c.line)
	}
	hmacLine, rsaLine := signedLines(f)
	f.Add(hmacLine)
	f.Add(rsaLine)
	f.Fuzz(func(t *testing.T, line string) {
		got, err := DecodeTuple(line)
		if err != nil {
			return
		}
		ref, refErr := parserDecodeTuple(line)
		if refErr != nil {
			t.Fatalf("DecodeTuple(%q) = %v, but the parser rejects it: %v", line, got, refErr)
		}
		if !got.Equal(ref) {
			t.Fatalf("DecodeTuple(%q) = %v, parser gives %v", line, got, ref)
		}
	})
}

// TestDecodeTupleAllocs bounds the allocations of decoding a plain line:
// the value slice and one interface box per symbol. The parser path cost
// dozens (token slice, AST, a binding environment per argument).
func TestDecodeTupleAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeTuple("t(alice,bob,carol)"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("decoding a 3-symbol line allocates %.0f times, want at most 4", allocs)
	}
}
