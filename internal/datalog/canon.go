package datalog

import (
	"fmt"
	"strconv"
	"strings"
)

// canonRule renders a clause into its canonical form: variables are renamed
// V0, V1, ... in order of first occurrence, arguments are fully
// parenthesized, and there is no whitespace except the one space that
// keeps "<" apart from a negative right operand. The canonical
// form is the identity of a Code value and the byte string that signature
// built-ins (rsasign, hmacsign) operate on, so it must be deterministic
// across processes and nodes.
func canonRule(r *Rule) string {
	c := &canonizer{names: map[string]string{}}
	return c.rule(r)
}

type canonizer struct {
	names map[string]string
	next  int
}

func (c *canonizer) rule(r *Rule) string {
	var b strings.Builder
	for i := range r.Heads {
		if i > 0 {
			b.WriteString(",")
		}
		c.atom(&b, &r.Heads[i])
	}
	if len(r.Body) > 0 || r.Agg != nil {
		b.WriteString("<-")
		if r.Agg != nil {
			fmt.Fprintf(&b, "agg<<%s=%s(%s)>>", c.variable(r.Agg.Result), r.Agg.Fn, c.variable(r.Agg.Over))
		}
		for i := range r.Body {
			if i > 0 || r.Agg != nil {
				b.WriteString(",")
			}
			if r.Body[i].Negated {
				b.WriteString("!")
			}
			c.atom(&b, &r.Body[i].Atom)
		}
	}
	b.WriteString(".")
	return b.String()
}

// comparisonOps are rendered infix so that canonical text re-parses.
var comparisonOps = map[string]bool{"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (c *canonizer) atom(b *strings.Builder, a *Atom) {
	if comparisonOps[a.Pred] && len(a.Args) == 2 && a.Part == nil {
		c.term(b, a.Args[0])
		b.WriteString(a.Pred)
		var rhs strings.Builder
		c.term(&rhs, a.Args[1])
		// "<" fused with a leading "-" would lex as the rule arrow "<-".
		// Only that pair gets a space, so every other rule's text (and
		// every signature over it) is unchanged.
		if a.Pred == "<" && strings.HasPrefix(rhs.String(), "-") {
			b.WriteByte(' ')
		}
		b.WriteString(rhs.String())
		return
	}
	switch {
	case a.AtomVar != "":
		b.WriteString(c.variable(a.AtomVar))
		if a.Star {
			b.WriteString("*")
		}
		return
	case a.PredVar != "":
		b.WriteString(c.variable(a.PredVar))
	default:
		b.WriteString(a.Pred)
	}
	if a.Part != nil {
		b.WriteString("[")
		c.term(b, a.Part)
		b.WriteString("]")
	}
	b.WriteString("(")
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(",")
		}
		c.term(b, t)
	}
	b.WriteString(")")
}

func (c *canonizer) term(b *strings.Builder, t Term) {
	switch t := t.(type) {
	case Var:
		b.WriteString(c.variable(string(t)))
	case StarVar:
		b.WriteString(c.variable(string(t)))
		b.WriteString("*")
	case Const:
		b.WriteString(canonValue(t.Val))
	case Quote:
		// Quote patterns (and head templates) share the enclosing rule's
		// variable scope: a pattern variable binds in the outer rule, so
		// renaming it in a separate scope would let it collide with an
		// outer variable on re-parse and change the rule's meaning (for
		// example R = [| reach(me,D). |] would canonicalize R and D to
		// the same name). Sharing the scope also keeps semantically
		// different rules from collapsing onto one canonical identity —
		// the byte string signatures are computed over. Only ground Code
		// values (Const) are independent clauses with their own scope,
		// handled by canonValue.
		b.WriteString("[|")
		b.WriteString(c.rule(t.Pat))
		b.WriteString("|]")
	case Arith:
		b.WriteString("(")
		c.term(b, t.L)
		b.WriteByte(t.Op)
		c.term(b, t.R)
		b.WriteString(")")
	case TermPart:
		b.WriteString(t.Pred)
		b.WriteString("[")
		c.term(b, t.Arg)
		b.WriteString("]")
	default:
		panic(fmt.Sprintf("datalog: unknown term type %T", t))
	}
}

// canonValue renders a constant in re-parseable surface syntax, so that
// canonical rule text can cross the wire and be parsed back on the
// receiving node.
func canonValue(v Value) string { return string(AppendCanonicalValue(nil, v)) }

func (c *canonizer) variable(name string) string {
	if strings.HasPrefix(name, "_") {
		// Blank variables are all distinct.
		n := fmt.Sprintf("V%d", c.next)
		c.next++
		return n
	}
	if n, ok := c.names[name]; ok {
		return n
	}
	n := fmt.Sprintf("V%d", c.next)
	c.next++
	c.names[name] = n
	return n
}

// AppendCanonicalValue appends the canonical surface form of v to dst. It
// is the per-value form of the canonical encoding that Code identity and
// the signature built-ins use, and is what the distribution transports
// write on the wire, so the same tuple encodes to the same bytes on every
// node and every transport. Entities are node-local and render as
// reserved symbols; they round-trip by identity of name, not of entity.
func AppendCanonicalValue(dst []byte, v Value) []byte {
	switch v := v.(type) {
	case Sym:
		return append(dst, v...)
	case String:
		return strconv.AppendQuote(dst, string(v))
	case Int:
		return strconv.AppendInt(dst, int64(v), 10)
	case Code:
		dst = append(dst, "[|"...)
		dst = append(dst, v.key...)
		return append(dst, "|]"...)
	case Entity:
		dst = append(dst, "lb:entity:"...)
		dst = append(dst, v.Sort...)
		dst = append(dst, ':')
		return strconv.AppendInt(dst, v.ID, 10)
	case PartRef:
		dst = append(dst, v.Pred...)
		dst = append(dst, '[')
		dst = AppendCanonicalValue(dst, v.Arg)
		return append(dst, ']')
	}
	panic(fmt.Sprintf("datalog: cannot canonicalize value %T", v))
}

// AppendCanonicalTuple appends t as the canonical fact functor(v1,...,vn).
func AppendCanonicalTuple(dst []byte, functor string, t Tuple) []byte {
	dst = append(dst, functor...)
	dst = append(dst, '(')
	for i, v := range t.vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendCanonicalValue(dst, v)
	}
	return append(dst, ')')
}

// DecodeCanonicalTuple is the inverse of AppendCanonicalTuple: it decodes
// one line functor(v1,...,vn) in a single pass over the canonical value
// grammar, without the lexer and parser:
//
//	value  := symbol | int | string | code | part
//	symbol := a non-variable identifier, ':' continuations included
//	int    := '-'? digits
//	string := a strconv-quoted string
//	code   := '[|' canonical clause text '|]'
//	part   := symbol '[' value ']'
//
// Only a code value reaches the parser, because a code value carries its
// rule: the quoted text is parsed as a quote term, exactly as a code
// argument of a parsed fact, and its Code must render back to the quoted
// text. The decoded tuple equals what parsing the line as a fact yields.
// Input the parser accepted but the encoder never writes — whitespace,
// comments, arithmetic, parentheses around a term, another functor — is
// rejected, and so is code the parser would have rewritten (ground
// arithmetic it folds).
func DecodeCanonicalTuple(line, functor string) (Tuple, error) {
	s := canonScanner{src: line, pos: len(functor) + 1}
	if !strings.HasPrefix(line, functor) || len(line) <= len(functor) || line[len(functor)] != '(' {
		return Tuple{}, s.errf("expected %s(", functor)
	}
	if line[s.pos:] == ")" {
		return Tuple{}, nil
	}
	vs := make([]Value, 0, 4)
	for {
		v, err := s.value()
		if err != nil {
			return Tuple{}, err
		}
		vs = append(vs, v)
		switch s.peek() {
		case ',':
			s.pos++
		case ')':
			if s.pos != len(line)-1 {
				return Tuple{}, s.errf("trailing input after ')'")
			}
			return TupleOf(vs), nil
		default:
			return Tuple{}, s.errf("expected ',' or ')'")
		}
	}
}

// canonScanner is the cursor of DecodeCanonicalTuple.
type canonScanner struct {
	src string
	pos int
}

func (s *canonScanner) errf(format string, args ...any) error {
	return fmt.Errorf("datalog: canonical tuple %q at byte %d: %s", s.src, s.pos, fmt.Sprintf(format, args...))
}

// peek returns the byte at the cursor, or 0 at the end of input.
func (s *canonScanner) peek() byte {
	if s.pos >= len(s.src) {
		return 0
	}
	return s.src[s.pos]
}

func (s *canonScanner) value() (Value, error) {
	c := s.peek()
	switch {
	case c == '"':
		u, rest, err := quotedPrefix(s.src[s.pos:])
		if err != nil {
			return nil, s.errf("%v", err)
		}
		s.pos = len(s.src) - len(rest)
		return String(u), nil
	case c == '-' || isDigit(c):
		return s.integer()
	case c == '[' && strings.HasPrefix(s.src[s.pos:], "[|"):
		return s.code()
	case isIdentStart(c):
		start := s.pos
		s.pos = identEnd(s.src, start)
		name := s.src[start:s.pos]
		if isVarName(name) {
			return nil, s.errf("variable %s is not a ground value", name)
		}
		if s.peek() != '[' {
			return Sym(name), nil
		}
		s.pos++
		arg, err := s.value()
		if err != nil {
			return nil, err
		}
		if s.peek() != ']' {
			return nil, s.errf("expected ']'")
		}
		s.pos++
		return PartRef{Pred: name, Arg: arg}, nil
	}
	return nil, s.errf("expected a value")
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// integer scans '-'? digits. The magnitude must fit in an int64, as it
// must for the lexer's integer literal.
func (s *canonScanner) integer() (Value, error) {
	neg := s.peek() == '-'
	if neg {
		s.pos++
	}
	start := s.pos
	for isDigit(s.peek()) {
		s.pos++
	}
	n, err := strconv.ParseInt(s.src[start:s.pos], 10, 64)
	if err != nil {
		return nil, s.errf("bad integer: %v", err)
	}
	if neg {
		n = -n
	}
	return Int(n), nil
}

// code scans a quoted clause to its matching '|]', stepping over nested
// quotes and string literals (which may contain "|]"), and rebuilds the
// Code value from it.
func (s *canonScanner) code() (Value, error) {
	start, depth := s.pos, 0
	for s.pos < len(s.src) {
		switch rest := s.src[s.pos:]; {
		case rest[0] == '"':
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return nil, s.errf("string in quoted code: %v", err)
			}
			s.pos += len(q)
		case strings.HasPrefix(rest, "[|"):
			depth++
			s.pos += 2
		case strings.HasPrefix(rest, "|]"):
			depth--
			s.pos += 2
			if depth == 0 {
				text := s.src[start:s.pos]
				c, err := parseQuotedCode(text)
				if err != nil {
					return nil, s.errf("%v", err)
				}
				if c.key != text[2:len(text)-2] {
					return nil, s.errf("quoted code is not in canonical form %s", c.key)
				}
				return c, nil
			}
		default:
			s.pos++
		}
	}
	return nil, s.errf("unterminated quoted code")
}
