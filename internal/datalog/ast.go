package datalog

import (
	"fmt"
	"strings"
)

// Term is one argument position of an atom. Concrete terms are Var, Const,
// Quote (quoted code), Arith (arithmetic expression), StarVar (the trailing
// T* of quoted-code patterns), and TermPart (partition references such as
// export[P] appearing in predNode rules).
type Term interface {
	isTerm()
	String() string
}

// Var is a Datalog variable. The blank variable "_" matches anything and
// never binds; the parser renames each blank occurrence apart.
type Var string

func (Var) isTerm()          {}
func (v Var) String() string { return string(v) }

// IsBlank reports whether the variable is an anonymous underscore variable.
func (v Var) IsBlank() bool { return strings.HasPrefix(string(v), "_") }

// Const is a constant term wrapping a runtime value.
type Const struct{ Val Value }

func (Const) isTerm()          {}
func (c Const) String() string { return c.Val.String() }

// Quote is a quoted code term: [| rule |]. In rule bodies it acts as a
// pattern over the meta-model (Section 3.3 of the paper); in rule heads it
// is a template instantiated with the rule's bindings to construct a new
// Code value.
type Quote struct{ Pat *Rule }

func (Quote) isTerm()          {}
func (q Quote) String() string { return "[| " + q.Pat.String() + " |]" }

// Arith is an arithmetic expression term such as N-1 in the paper's dd3
// meta-rule. It must be ground (all variables bound) when evaluated.
type Arith struct {
	Op   byte // '+', '-', '*', '/'
	L, R Term
}

func (Arith) isTerm() {}
func (a Arith) String() string {
	return fmt.Sprintf("%s%c%s", a.L.String(), a.Op, a.R.String())
}

// StarVar is the Kleene-starred metavariable T* inside quoted-code argument
// lists: it matches any (possibly empty) suffix of arguments.
type StarVar string

func (StarVar) isTerm()          {}
func (s StarVar) String() string { return string(s) + "*" }

// TermPart is a partition reference term p[X], as used in the first
// argument of predNode placement rules (Section 3.5). It evaluates to a
// PartRef value.
type TermPart struct {
	Pred string
	Arg  Term
}

func (TermPart) isTerm()          {}
func (t TermPart) String() string { return t.Pred + "[" + t.Arg.String() + "]" }

// Atom is a predicate applied to terms. Within quoted-code patterns an atom
// may instead be a metavariable standing for a whole literal (AtomVar, with
// Star for the rest-of-body pattern A*), and its functor may be a
// metavariable (PredVar), following the paper's pattern syntax
// [| A <- P(T*), A*. |].
type Atom struct {
	Pred    string // concrete functor, e.g. "says"; empty if PredVar/AtomVar
	PredVar string // metavariable functor P (patterns only)
	AtomVar string // whole-atom metavariable A (patterns only)
	Star    bool   // with AtomVar: matches the remaining literals (A*)
	Part    Term   // partition argument of a curried predicate p[X](..)
	Args    []Term
	ArgStar bool // trailing argument is a StarVar matching any suffix
	Pos     Pos  // source position of the functor token; zero if synthetic
}

// Arity returns the number of argument positions, counting the partition
// argument, which is stored as the leading column of curried relations.
func (a *Atom) Arity() int {
	n := len(a.Args)
	if a.Part != nil {
		n++
	}
	return n
}

// AllArgs returns the full argument list with the partition argument, if
// any, prepended. The result aliases a.Args when there is no partition.
func (a *Atom) AllArgs() []Term {
	if a.Part == nil {
		return a.Args
	}
	out := make([]Term, 0, len(a.Args)+1)
	out = append(out, a.Part)
	return append(out, a.Args...)
}

func (a *Atom) String() string {
	var b strings.Builder
	switch {
	case a.AtomVar != "":
		b.WriteString(a.AtomVar)
		if a.Star {
			b.WriteString("*")
		}
		return b.String()
	case a.PredVar != "":
		b.WriteString(a.PredVar)
	default:
		b.WriteString(a.Pred)
	}
	if a.Part != nil {
		b.WriteString("[")
		b.WriteString(a.Part.String())
		b.WriteString("]")
	}
	if len(a.Args) > 0 || a.Part == nil {
		b.WriteString("(")
		for i, t := range a.Args {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(t.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

// Literal is a possibly negated atom.
type Literal struct {
	Negated bool
	Atom    Atom
}

func (l Literal) String() string {
	if l.Negated {
		return "!" + l.Atom.String()
	}
	return l.Atom.String()
}

// AggSpec describes the aggregation prefix agg<<N = fn(V)>> of a rule
// (Section 4.2.2 of the paper uses count for threshold delegation; total
// for weighted thresholds).
type AggSpec struct {
	Result string // variable receiving the aggregate, e.g. N
	Fn     string // "count", "total", "min", "max"
	Over   string // variable aggregated over, e.g. U
}

func (a *AggSpec) String() string {
	return fmt.Sprintf("agg<<%s = %s(%s)>>", a.Result, a.Fn, a.Over)
}

// Rule is a clause: Heads <- Body. A fact is a rule with an empty body. A
// multi-atom head (as in the paper's dfs2) abbreviates one rule per head
// atom sharing the body. Rules double as the payload of quoted code terms,
// where the pattern-only atom features may appear.
type Rule struct {
	Label string // optional label, e.g. "exp1"
	Heads []Atom
	Body  []Literal
	Agg   *AggSpec
	Pos   Pos // source position of the clause start; zero if synthetic
}

// IsFact reports whether the rule has an empty body and a single head.
func (r *Rule) IsFact() bool { return len(r.Body) == 0 && r.Agg == nil && len(r.Heads) == 1 }

func (r *Rule) String() string {
	var b strings.Builder
	for i := range r.Heads {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.Heads[i].String())
	}
	if len(r.Body) > 0 || r.Agg != nil {
		b.WriteString(" <- ")
		if r.Agg != nil {
			b.WriteString(r.Agg.String())
			b.WriteString(" ")
		}
		for i, l := range r.Body {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(l.String())
		}
	}
	b.WriteString(".")
	return b.String()
}

// Constraint is a schema constraint F1 -> F2 (Section 3.2). The RHS is a
// disjunction of conjunctions (normalized from arbitrary nesting); the
// empty RHS form (p(X,..) -> .) serves as a predicate declaration.
// Constraints compile to fail() rules in the workspace layer.
type Constraint struct {
	Label string
	LHS   []Literal
	RHS   [][]Literal // alternatives; empty means pure declaration
	Pos   Pos         // source position of the constraint start; zero if synthetic
}

func (c *Constraint) String() string {
	var b strings.Builder
	for i, l := range c.LHS {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.String())
	}
	b.WriteString(" -> ")
	for i, alt := range c.RHS {
		if i > 0 {
			b.WriteString("; ")
		}
		for j, l := range alt {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(l.String())
		}
	}
	b.WriteString(".")
	return b.String()
}

// Program is a parsed set of rules and constraints.
type Program struct {
	Rules       []*Rule
	Constraints []*Constraint
}

// Clone deep-copies a rule.
func (r *Rule) Clone() *Rule {
	if r == nil {
		return nil
	}
	c := &Rule{Label: r.Label, Pos: r.Pos}
	c.Heads = make([]Atom, len(r.Heads))
	for i := range r.Heads {
		c.Heads[i] = cloneAtom(&r.Heads[i])
	}
	c.Body = make([]Literal, len(r.Body))
	for i := range r.Body {
		c.Body[i] = Literal{Negated: r.Body[i].Negated, Atom: cloneAtom(&r.Body[i].Atom)}
	}
	if r.Agg != nil {
		ag := *r.Agg
		c.Agg = &ag
	}
	return c
}

func cloneAtom(a *Atom) Atom {
	c := *a
	if a.Part != nil {
		c.Part = cloneTerm(a.Part)
	}
	c.Args = make([]Term, len(a.Args))
	for i, t := range a.Args {
		c.Args[i] = cloneTerm(t)
	}
	return c
}

func cloneTerm(t Term) Term {
	switch t := t.(type) {
	case Var, Const, StarVar:
		return t
	case Quote:
		return Quote{Pat: t.Pat.Clone()}
	case Arith:
		return Arith{Op: t.Op, L: cloneTerm(t.L), R: cloneTerm(t.R)}
	case TermPart:
		return TermPart{Pred: t.Pred, Arg: cloneTerm(t.Arg)}
	}
	panic(fmt.Sprintf("datalog: unknown term type %T", t))
}

// WalkTerms calls fn for every term in the rule, including nested arithmetic
// operands and partition arguments. It does not descend into quoted code.
func (r *Rule) WalkTerms(fn func(Term)) {
	var walk func(Term)
	walk = func(t Term) {
		fn(t)
		switch t := t.(type) {
		case Arith:
			walk(t.L)
			walk(t.R)
		case TermPart:
			walk(t.Arg)
		}
	}
	for i := range r.Heads {
		for _, t := range r.Heads[i].AllArgs() {
			walk(t)
		}
	}
	for i := range r.Body {
		for _, t := range r.Body[i].Atom.AllArgs() {
			walk(t)
		}
	}
}

// Vars returns the set of named (non-blank) variables of the rule, not
// descending into quoted code.
func (r *Rule) Vars() map[string]bool {
	vs := map[string]bool{}
	r.WalkTerms(func(t Term) {
		if v, ok := t.(Var); ok && !v.IsBlank() {
			vs[string(v)] = true
		}
	})
	if r.Agg != nil {
		vs[r.Agg.Result] = true
		vs[r.Agg.Over] = true
	}
	return vs
}

// SplitHeads expands a multi-head rule into one single-head rule per head
// atom sharing the body, per the paper's reading of dfs2.
func (r *Rule) SplitHeads() []*Rule {
	if len(r.Heads) <= 1 {
		return []*Rule{r}
	}
	out := make([]*Rule, 0, len(r.Heads))
	for i := range r.Heads {
		c := r.Clone()
		c.Heads = []Atom{c.Heads[i]}
		out = append(out, c)
	}
	return out
}
