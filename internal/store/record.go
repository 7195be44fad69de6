package store

import (
	"fmt"
	"strconv"
	"strings"

	"lbtrust/internal/datalog"
	"lbtrust/internal/workspace"
)

// Record is one logical entry of the write-ahead log and of snapshot
// files: a kind, a list of header fields, and zero or more body lines.
// Fields are strconv-quoted on the header line; body lines are the
// newline-free encodings of record.go's codecs (tagged tuple lines,
// canonical rule text, base64 key material), so a record serializes as
// plain text inside its CRC frame:
//
//	flush "alice" 0
//	+ "says" y"alice"\ty"bob"\tc"…"
//	…
type Record struct {
	Kind   string
	Fields []string
	Lines  []string
}

// Record kinds. Workspace flushes and distribution events go to the WAL;
// snapshot files reuse the same kinds plus the ws-* state records,
// bracketed by snap-begin/snap-end.
const (
	KindFlush  = "flush"  // fields: principal, rebuilt; lines: flush ops
	KindNode   = "node"   // fields: node name
	KindPrin   = "prin"   // fields: principal, node
	KindScheme = "scheme" // fields: principal, scheme
	KindKey    = "key"    // fields: kind (rsa-priv|rsa-pub|shared), name/pair; lines: base64 material
	KindMap    = "map"    // fields: source pred, destination pred
	KindShip   = "ship"   // lines: shipped-set records
	KindReset  = "reset"  // fields: target principal

	KindSnapBegin = "snap-begin" // fields: format version
	KindSnapEnd   = "snap-end"
	KindWS        = "ws"       // fields: principal, auxSeq
	KindWSDecls   = "ws-decls" // fields: principal; lines: name arity partitioned
	KindWSRules   = "ws-rules" // fields: principal; lines: owner derived code
	KindWSCons    = "ws-cons"  // fields: principal; lines: auxID label source
	KindWSRel     = "ws-rel"   // fields: principal, base|derived, name, arity, partitioned; lines: tuples
)

// snapshotVersion versions the snapshot/WAL record format.
const snapshotVersion = 1

func (r *Record) encode() []byte {
	var b strings.Builder
	b.WriteString(r.Kind)
	for _, f := range r.Fields {
		b.WriteByte(' ')
		b.WriteString(strconv.Quote(f))
	}
	for _, l := range r.Lines {
		b.WriteByte('\n')
		b.WriteString(l)
	}
	return []byte(b.String())
}

func parseRecord(payload []byte) (*Record, error) {
	text := string(payload)
	head, rest, hasBody := strings.Cut(text, "\n")
	kind, fieldsText, _ := strings.Cut(head, " ")
	if kind == "" {
		return nil, fmt.Errorf("store: empty record kind")
	}
	r := &Record{Kind: kind}
	for fieldsText != "" {
		q, err := strconv.QuotedPrefix(fieldsText)
		if err != nil {
			return nil, fmt.Errorf("store: bad record header %q: %w", head, err)
		}
		u, err := strconv.Unquote(q)
		if err != nil {
			return nil, fmt.Errorf("store: bad record header %q: %w", head, err)
		}
		r.Fields = append(r.Fields, u)
		fieldsText = strings.TrimPrefix(fieldsText[len(q):], " ")
	}
	if hasBody {
		r.Lines = strings.Split(rest, "\n")
	}
	return r, nil
}

// field returns field i or an error naming the record kind.
func (r *Record) field(i int) (string, error) {
	if i >= len(r.Fields) {
		return "", fmt.Errorf("store: %s record missing field %d", r.Kind, i)
	}
	return r.Fields[i], nil
}

// ---- flush journal codec ----------------------------------------------------

// Flush op line prefixes.
const (
	opAssert  = "+"
	opRetract = "-"
	opDerived = "d"
	opRuleAdd = "r+"
	opRuleDel = "r-"
	opConsAdd = "c+"
	opConsDel = "c-"
)

// EncodeFlushPayload renders one workspace flush journal as a WAL record
// payload, appending into a single buffer: this runs on every committed
// transaction, so it avoids the per-line string garbage the generic
// Record encoder would produce.
func EncodeFlushPayload(principal string, j *workspace.FlushJournal) []byte {
	return AppendFlushPayload(nil, principal, j)
}

// AppendFlushPayload appends the flush record payload to dst, so callers
// can reuse (pool) the buffer.
func AppendFlushPayload(dst []byte, principal string, j *workspace.FlushJournal) []byte {
	buf := dst
	buf = append(buf, KindFlush...)
	buf = append(buf, ' ')
	buf = strconv.AppendQuote(buf, principal)
	buf = append(buf, ' ', '"')
	if j.Rebuilt {
		buf = append(buf, '1')
	} else {
		buf = append(buf, '0')
	}
	buf = append(buf, '"')
	addFact := func(op string, f workspace.FactChange) {
		buf = append(buf, '\n')
		buf = append(buf, op...)
		buf = append(buf, ' ')
		buf = strconv.AppendQuote(buf, f.Pred)
		buf = append(buf, ' ')
		buf = datalog.AppendTupleLine(buf, f.Tuple)
	}
	addTuples := func(op string, m map[string][]datalog.Tuple) {
		for _, pred := range sortedKeys(m) {
			for _, t := range m[pred] {
				addFact(op, workspace.FactChange{Pred: pred, Tuple: t})
			}
		}
	}
	for _, op := range j.Schema {
		buf = append(buf, '\n')
		switch op.Kind {
		case workspace.SchemaConstraintRemove:
			buf = append(buf, opConsDel...)
			buf = append(buf, ' ')
			buf = strconv.AppendQuote(buf, op.Label)
		case workspace.SchemaRuleRemove:
			buf = append(buf, opRuleDel...)
			buf = append(buf, ' ')
			buf = strconv.AppendQuote(buf, string(op.Code.Canonical()))
		case workspace.SchemaConstraintAdd:
			buf = append(buf, opConsAdd...)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(op.Constraint.AuxID), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendQuote(buf, op.Constraint.Label)
			buf = append(buf, ' ')
			buf = strconv.AppendQuote(buf, op.Constraint.Source)
		case workspace.SchemaRuleAdd:
			buf = append(buf, opRuleAdd...)
			buf = append(buf, ' ')
			buf = strconv.AppendQuote(buf, string(op.Rule.Owner))
			if op.Rule.Derived {
				buf = append(buf, " 1 "...)
			} else {
				buf = append(buf, " 0 "...)
			}
			buf = strconv.AppendQuote(buf, string(op.Rule.Code.Canonical()))
		}
	}
	for _, f := range j.Facts {
		if f.Retract {
			addFact(opRetract, f)
		} else {
			addFact(opAssert, f)
		}
	}
	if !j.Rebuilt {
		addTuples(opDerived, j.Changed)
	}
	return buf
}

// DecodeFlush parses a flush record back into its journal.
func DecodeFlush(r *Record) (string, *workspace.FlushJournal, error) {
	return DecodeFlushWith(r, nil)
}

// DecodeFlushWith parses a flush record using a shared decoder, whose
// code memo recovery reuses across every record of a replay.
func DecodeFlushWith(r *Record, dec *datalog.Decoder) (principal string, j *workspace.FlushJournal, err error) {
	if r.Kind != KindFlush {
		return "", nil, fmt.Errorf("store: record kind %s is not a flush", r.Kind)
	}
	principal, err = r.field(0)
	if err != nil {
		return "", nil, err
	}
	rebuilt, err := r.field(1)
	if err != nil {
		return "", nil, err
	}
	j = &workspace.FlushJournal{Rebuilt: rebuilt == "1"}
	parseFact := func(rest string) (workspace.FactChange, error) {
		pred, tupleText, err := quotedField(rest)
		if err != nil {
			return workspace.FactChange{}, err
		}
		t, err := dec.DecodeTupleLine(strings.TrimPrefix(tupleText, " "))
		if err != nil {
			return workspace.FactChange{}, err
		}
		return workspace.FactChange{Pred: pred, Tuple: t}, nil
	}
	addTuple := func(m *map[string][]datalog.Tuple, rest string) error {
		f, err := parseFact(rest)
		if err != nil {
			return err
		}
		if *m == nil {
			*m = map[string][]datalog.Tuple{}
		}
		(*m)[f.Pred] = append((*m)[f.Pred], f.Tuple)
		return nil
	}
	for _, line := range r.Lines {
		if line == "" {
			continue
		}
		op, rest, _ := strings.Cut(line, " ")
		switch op {
		case opAssert:
			var f workspace.FactChange
			if f, err = parseFact(rest); err == nil {
				j.Facts = append(j.Facts, f)
			}
		case opRetract:
			var f workspace.FactChange
			if f, err = parseFact(rest); err == nil {
				f.Retract = true
				j.Facts = append(j.Facts, f)
			}
		case opDerived:
			err = addTuple(&j.Changed, rest)
		case opRuleAdd:
			var owner, codeText string
			var derived string
			owner, rest2, ferr := quotedField(rest)
			if ferr != nil {
				err = ferr
				break
			}
			rest2 = strings.TrimPrefix(rest2, " ")
			derived, rest2, _ = strings.Cut(rest2, " ")
			codeText, _, ferr = quotedField(rest2)
			if ferr != nil {
				err = ferr
				break
			}
			code, cerr := dec.Code(codeText)
			if cerr != nil {
				err = cerr
				break
			}
			j.Schema = append(j.Schema, workspace.SchemaChange{Kind: workspace.SchemaRuleAdd, Rule: workspace.RuleChange{
				Code: code, Owner: datalog.Sym(owner), Derived: derived == "1",
			}})
		case opRuleDel:
			codeText, _, ferr := quotedField(rest)
			if ferr != nil {
				err = ferr
				break
			}
			code, cerr := dec.Code(codeText)
			if cerr != nil {
				err = cerr
				break
			}
			j.Schema = append(j.Schema, workspace.SchemaChange{Kind: workspace.SchemaRuleRemove, Code: code})
		case opConsAdd:
			auxText, rest2, _ := strings.Cut(rest, " ")
			auxID, aerr := strconv.Atoi(auxText)
			if aerr != nil {
				err = fmt.Errorf("store: bad aux id %q: %w", auxText, aerr)
				break
			}
			label, rest2, ferr := quotedField(rest2)
			if ferr != nil {
				err = ferr
				break
			}
			source, _, ferr := quotedField(strings.TrimPrefix(rest2, " "))
			if ferr != nil {
				err = ferr
				break
			}
			j.Schema = append(j.Schema, workspace.SchemaChange{Kind: workspace.SchemaConstraintAdd, Constraint: workspace.ConstraintChange{
				AuxID: auxID, Label: label, Source: source,
			}})
		case opConsDel:
			label, _, ferr := quotedField(rest)
			if ferr != nil {
				err = ferr
				break
			}
			j.Schema = append(j.Schema, workspace.SchemaChange{Kind: workspace.SchemaConstraintRemove, Label: label})
		default:
			err = fmt.Errorf("store: unknown flush op %q", op)
		}
		if err != nil {
			return "", nil, fmt.Errorf("store: flush line %q: %w", line, err)
		}
	}
	return principal, j, nil
}

func quotedField(s string) (value, rest string, err error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", fmt.Errorf("store: bad quoted field in %q: %w", s, err)
	}
	u, err := strconv.Unquote(q)
	if err != nil {
		return "", "", err
	}
	return u, s[len(q):], nil
}

func sortedKeys(m map[string][]datalog.Tuple) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ---- workspace state codec --------------------------------------------------

// encodeWorkspaceState renders one workspace snapshot as records.
func encodeWorkspaceState(st *workspace.WorkspaceState) []*Record {
	out := []*Record{{
		Kind:   KindWS,
		Fields: []string{st.Principal, strconv.Itoa(st.AuxSeq)},
	}}
	if len(st.Decls) > 0 {
		r := &Record{Kind: KindWSDecls, Fields: []string{st.Principal}}
		for _, d := range st.Decls {
			r.Lines = append(r.Lines, fmt.Sprintf("%s %d %s", strconv.Quote(d.Name), d.Arity, boolStr(d.Partitioned)))
		}
		out = append(out, r)
	}
	if len(st.Constraints) > 0 {
		r := &Record{Kind: KindWSCons, Fields: []string{st.Principal}}
		for _, c := range st.Constraints {
			r.Lines = append(r.Lines, fmt.Sprintf("%d %s %s", c.AuxID, strconv.Quote(c.Label), strconv.Quote(c.Source)))
		}
		out = append(out, r)
	}
	if len(st.Rules) > 0 {
		r := &Record{Kind: KindWSRules, Fields: []string{st.Principal}}
		for _, rc := range st.Rules {
			r.Lines = append(r.Lines, strconv.Quote(string(rc.Owner))+" "+boolStr(rc.Derived)+" "+strconv.Quote(string(rc.Code.Canonical())))
		}
		out = append(out, r)
	}
	rel := func(section string, rs workspace.RelationState) *Record {
		r := &Record{Kind: KindWSRel, Fields: []string{
			st.Principal, section, rs.Name, strconv.Itoa(rs.Arity), boolStr(rs.Partitioned),
		}}
		for _, t := range rs.Tuples {
			r.Lines = append(r.Lines, datalog.EncodeTupleLine(t))
		}
		return r
	}
	for _, rs := range st.Base {
		out = append(out, rel("base", rs))
	}
	for _, rs := range st.Derived {
		out = append(out, rel("derived", rs))
	}
	return out
}

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// wsBuilder accumulates ws-* records into WorkspaceStates, preserving the
// order workspaces appear in the snapshot.
type wsBuilder struct {
	states map[string]*workspace.WorkspaceState
	order  []string
	dec    *datalog.Decoder
}

func newWSBuilder(dec *datalog.Decoder) *wsBuilder {
	return &wsBuilder{states: map[string]*workspace.WorkspaceState{}, dec: dec}
}

func (b *wsBuilder) get(principal string) *workspace.WorkspaceState {
	if st, ok := b.states[principal]; ok {
		return st
	}
	st := &workspace.WorkspaceState{Principal: principal}
	b.states[principal] = st
	b.order = append(b.order, principal)
	return st
}

func (b *wsBuilder) apply(r *Record) error {
	principal, err := r.field(0)
	if err != nil {
		return err
	}
	st := b.get(principal)
	switch r.Kind {
	case KindWS:
		seqText, err := r.field(1)
		if err != nil {
			return err
		}
		st.AuxSeq, err = strconv.Atoi(seqText)
		return err
	case KindWSDecls:
		for _, line := range r.Lines {
			name, rest, err := quotedField(line)
			if err != nil {
				return err
			}
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				return fmt.Errorf("store: bad decl line %q", line)
			}
			arity, err := strconv.Atoi(parts[0])
			if err != nil {
				return err
			}
			st.Decls = append(st.Decls, workspace.Decl{Name: name, Arity: arity, Partitioned: parts[1] == "1"})
		}
	case KindWSCons:
		for _, line := range r.Lines {
			auxText, rest, _ := strings.Cut(line, " ")
			auxID, err := strconv.Atoi(auxText)
			if err != nil {
				return fmt.Errorf("store: bad constraint line %q: %w", line, err)
			}
			label, rest, err := quotedField(rest)
			if err != nil {
				return err
			}
			source, _, err := quotedField(strings.TrimPrefix(rest, " "))
			if err != nil {
				return err
			}
			st.Constraints = append(st.Constraints, workspace.ConstraintChange{AuxID: auxID, Label: label, Source: source})
		}
	case KindWSRules:
		for _, line := range r.Lines {
			owner, rest, err := quotedField(line)
			if err != nil {
				return err
			}
			rest = strings.TrimPrefix(rest, " ")
			derived, rest, _ := strings.Cut(rest, " ")
			codeText, _, err := quotedField(rest)
			if err != nil {
				return err
			}
			code, err := b.dec.Code(codeText)
			if err != nil {
				return err
			}
			st.Rules = append(st.Rules, workspace.RuleChange{Code: code, Owner: datalog.Sym(owner), Derived: derived == "1"})
		}
	case KindWSRel:
		if len(r.Fields) < 5 {
			return fmt.Errorf("store: ws-rel record missing fields")
		}
		arity, err := strconv.Atoi(r.Fields[3])
		if err != nil {
			return err
		}
		rs := workspace.RelationState{Name: r.Fields[2], Arity: arity, Partitioned: r.Fields[4] == "1"}
		for _, line := range r.Lines {
			t, err := b.dec.DecodeTupleLine(line)
			if err != nil {
				return fmt.Errorf("store: relation %s: %w", rs.Name, err)
			}
			if t.Len() != arity {
				return fmt.Errorf("store: relation %s: tuple arity %d, want %d", rs.Name, t.Len(), arity)
			}
			rs.Tuples = append(rs.Tuples, t)
		}
		switch r.Fields[1] {
		case "base":
			st.Base = append(st.Base, rs)
		case "derived":
			st.Derived = append(st.Derived, rs)
		default:
			return fmt.Errorf("store: unknown relation section %q", r.Fields[1])
		}
	default:
		return fmt.Errorf("store: unknown workspace record %s", r.Kind)
	}
	return nil
}

func (b *wsBuilder) states2() []*workspace.WorkspaceState {
	out := make([]*workspace.WorkspaceState, 0, len(b.order))
	for _, p := range b.order {
		out = append(out, b.states[p])
	}
	return out
}

// ---- distribution / system codecs -------------------------------------------

// ShipRecord mirrors one shipped-set entry of the distribution runtime.
type ShipRecord struct {
	Key    string
	Sender string
	Target string
	Gen    uint64
}

// EncodeShips renders shipped-set records (a pump round's worth, or a
// snapshot's whole set) as one WAL record.
func EncodeShips(ships []ShipRecord) *Record {
	r := &Record{Kind: KindShip}
	for _, s := range ships {
		r.Lines = append(r.Lines, string(appendShipLine(nil, s)))
	}
	return r
}

// AppendShipsPayload appends the ship record payload to dst.
func AppendShipsPayload(dst []byte, ships []ShipRecord) []byte {
	buf := append(dst, KindShip...)
	for _, s := range ships {
		buf = append(buf, '\n')
		buf = appendShipLine(buf, s)
	}
	return buf
}

func appendShipLine(buf []byte, s ShipRecord) []byte {
	buf = strconv.AppendQuote(buf, s.Key)
	buf = append(buf, ' ')
	buf = strconv.AppendQuote(buf, s.Sender)
	buf = append(buf, ' ')
	buf = strconv.AppendQuote(buf, s.Target)
	buf = append(buf, ' ')
	return strconv.AppendUint(buf, s.Gen, 10)
}

// DecodeShips parses a ship record.
func DecodeShips(r *Record) ([]ShipRecord, error) {
	var out []ShipRecord
	for _, line := range r.Lines {
		if line == "" {
			continue
		}
		key, rest, err := quotedField(line)
		if err != nil {
			return nil, err
		}
		sender, rest, err := quotedField(strings.TrimPrefix(rest, " "))
		if err != nil {
			return nil, err
		}
		target, rest, err := quotedField(strings.TrimPrefix(rest, " "))
		if err != nil {
			return nil, err
		}
		gen, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("store: bad ship generation in %q: %w", line, err)
		}
		out = append(out, ShipRecord{Key: key, Sender: sender, Target: target, Gen: gen})
	}
	return out, nil
}

// KeyRecord carries cryptographic key material: Kind is rsa-priv, rsa-pub,
// or shared; Name is the principal (rsa) or the joined pair (shared).
type KeyRecord struct {
	Kind string
	Name string
	Data []byte
}
