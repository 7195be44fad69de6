package meta

import (
	"fmt"
	"sync/atomic"

	"lbtrust/internal/datalog"
)

// freshCounter makes translation-introduced variables globally unique, so
// that separately translated literal lists (for example a constraint's LHS
// and RHS) can be combined into one rule body without capture.
var freshCounter atomic.Int64

// TranslatePatterns rewrites every quoted-code pattern in the rule body
// into a conjunction of meta-model literals, exactly as Section 3.3 of the
// paper describes: the pattern
//
//	owner(U, [| A <- P(T2*), A*. |]) -> access(U,P,read)
//
// becomes
//
//	owner(U,R1), rule(R1), body(R1,A1), atom(A1), functor(A1,P) -> ...
//
// Quoted code in head positions is left untouched (it is a template,
// instantiated by the engine). Quote-equality literals R = [| ... |] anchor
// the pattern at R. The returned rule is a rewritten clone.
func TranslatePatterns(r *datalog.Rule) (*datalog.Rule, error) {
	out := r.Clone()
	fresh := func(prefix string) datalog.Var {
		return datalog.Var(fmt.Sprintf("MV_%s%d", prefix, freshCounter.Add(1)))
	}

	var newBody []datalog.Literal
	for _, lit := range out.Body {
		// R = [| pattern |] anchors the pattern at the variable.
		if lit.Atom.Pred == "=" && len(lit.Atom.Args) == 2 && !lit.Negated {
			v, q, ok := eqVarQuote(lit.Atom.Args)
			if ok {
				lits, err := patternLits(v, q.Pat, fresh)
				if err != nil {
					return nil, err
				}
				newBody = append(newBody, lits...)
				continue
			}
		}
		hasQuote := false
		for _, t := range lit.Atom.AllArgs() {
			if _, ok := t.(datalog.Quote); ok {
				hasQuote = true
				break
			}
		}
		if !hasQuote {
			newBody = append(newBody, lit)
			continue
		}
		if lit.Negated {
			return nil, fmt.Errorf("quoted-code pattern under negation in %s is not supported", lit.Atom.String())
		}
		a := lit.Atom
		var extra []datalog.Literal
		replace := func(t datalog.Term) (datalog.Term, error) {
			q, ok := t.(datalog.Quote)
			if !ok {
				return t, nil
			}
			rv := fresh("R")
			lits, err := patternLits(rv, q.Pat, fresh)
			if err != nil {
				return nil, err
			}
			extra = append(extra, lits...)
			return rv, nil
		}
		if a.Part != nil {
			p, err := replace(a.Part)
			if err != nil {
				return nil, err
			}
			a.Part = p
		}
		args := make([]datalog.Term, len(a.Args))
		for i, t := range a.Args {
			nt, err := replace(t)
			if err != nil {
				return nil, err
			}
			args[i] = nt
		}
		a.Args = args
		newBody = append(newBody, datalog.Literal{Atom: a})
		newBody = append(newBody, extra...)
	}
	out.Body = newBody
	return out, nil
}

func eqVarQuote(args []datalog.Term) (datalog.Var, datalog.Quote, bool) {
	if v, ok := args[0].(datalog.Var); ok {
		if q, ok := args[1].(datalog.Quote); ok {
			return v, q, true
		}
	}
	if v, ok := args[1].(datalog.Var); ok {
		if q, ok := args[0].(datalog.Quote); ok {
			return v, q, true
		}
	}
	return "", datalog.Quote{}, false
}

// patternLits builds the meta-model conjunction matching a quoted pattern
// anchored at ruleVar. Matching is existential, mirroring the paper's
// translation: listed pattern atoms must be embeddable in the rule;
// Kleene-starred metavariables (A*, T*) contribute no constraints.
func patternLits(ruleVar datalog.Var, pat *datalog.Rule, fresh func(string) datalog.Var) ([]datalog.Literal, error) {
	if pat.Agg != nil {
		return nil, fmt.Errorf("aggregation inside quoted-code pattern is not supported")
	}
	lits := []datalog.Literal{
		pos(PredRule, datalog.Term(ruleVar)),
	}
	for i := range pat.Heads {
		hl, err := atomPatternLits(ruleVar, PredHead, &pat.Heads[i], fresh)
		if err != nil {
			return nil, err
		}
		lits = append(lits, hl...)
	}
	for i := range pat.Body {
		bl, err := atomPatternLits(ruleVar, PredBody, &pat.Body[i].Atom, fresh)
		if err != nil {
			return nil, err
		}
		lits = append(lits, bl...)
		if pat.Body[i].Negated && len(bl) > 0 {
			// The atom entity variable is the second argument of the first
			// emitted literal (head/body fact).
			ae := bl[0].Atom.Args[1]
			lits = append(lits, pos(PredNegated, ae))
		}
	}
	return lits, nil
}

func atomPatternLits(ruleVar datalog.Var, slot string, a *datalog.Atom, fresh func(string) datalog.Var) ([]datalog.Literal, error) {
	// Starred atom metavariable (A*): the rest of the clause, no
	// constraints.
	if a.AtomVar != "" && a.Star {
		return nil, nil
	}
	var atomTerm datalog.Term
	if a.AtomVar != "" {
		atomTerm = datalog.Var(a.AtomVar)
	} else {
		atomTerm = fresh("A")
	}
	lits := []datalog.Literal{pos(slot, datalog.Term(ruleVar), atomTerm)}
	if a.AtomVar != "" && a.Pred == "" && a.PredVar == "" {
		// Bare metavariable: matches any atom in the slot.
		return lits, nil
	}
	switch {
	case a.PredVar != "":
		lits = append(lits, pos(PredFunctor, atomTerm, datalog.Var(a.PredVar)))
	case a.Pred != "":
		lits = append(lits, pos(PredFunctor, atomTerm, datalog.Const{Val: datalog.Sym(a.Pred)}))
	}
	pos0 := 1
	if a.Part != nil {
		tl, err := argPatternLits(atomTerm, 0, a.Part, fresh)
		if err != nil {
			return nil, err
		}
		lits = append(lits, tl...)
	}
	for _, t := range a.Args {
		if _, ok := t.(datalog.StarVar); ok {
			break // T*: remaining arguments unconstrained
		}
		tl, err := argPatternLits(atomTerm, pos0, t, fresh)
		if err != nil {
			return nil, err
		}
		lits = append(lits, tl...)
		pos0++
	}
	return lits, nil
}

func argPatternLits(atomTerm datalog.Term, position int, t datalog.Term, fresh func(string) datalog.Var) ([]datalog.Literal, error) {
	te := fresh("T")
	argLit := pos(PredArg, atomTerm, datalog.Const{Val: datalog.Int(position)}, datalog.Term(te))
	switch t := t.(type) {
	case datalog.Var:
		if t.IsBlank() {
			// Any term at this position.
			return []datalog.Literal{argLit}, nil
		}
		// A pattern variable matches a constant and binds to its value,
		// following the paper's translation of bex1'.
		return []datalog.Literal{
			argLit,
			pos(PredConstant, datalog.Term(te)),
			pos(PredValue, datalog.Term(te), t),
		}, nil
	case datalog.Const:
		return []datalog.Literal{
			argLit,
			pos(PredConstant, datalog.Term(te)),
			pos(PredValue, datalog.Term(te), datalog.Term(t)),
		}, nil
	case datalog.Quote:
		// A nested quote matches a constant holding a code value with the
		// nested pattern's structure.
		rv := fresh("R")
		lits := []datalog.Literal{
			argLit,
			pos(PredConstant, datalog.Term(te)),
			pos(PredValue, datalog.Term(te), datalog.Term(rv)),
		}
		inner, err := patternLits(rv, t.Pat, fresh)
		if err != nil {
			return nil, err
		}
		return append(lits, inner...), nil
	}
	return nil, fmt.Errorf("unsupported term %s in quoted-code pattern", t.String())
}

// pos builds a positive literal.
func pos(pred string, args ...datalog.Term) datalog.Literal {
	return datalog.Literal{Atom: datalog.Atom{Pred: pred, Args: args}}
}
