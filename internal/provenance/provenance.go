// Package provenance captures why derived tuples exist: a bounded,
// per-workspace derivation DAG mapping each derived tuple to the rule and
// premise tuples that produced it, plus remote-origin leaves for tuples
// that arrived over dist Sync. The store is fed by the evaluator's
// Observe hook (every successful body instantiation, pre-dedup), so
// attaching it to a workspace after load and re-running evaluation
// re-captures the complete DAG — which is also how provenance survives
// retraction-driven rebuilds and crash recovery: entries are never
// journaled, they are re-derived.
//
// A nil *Store is the disabled configuration; every method is a no-op on
// it, so instrumented sites pay one branch (the PR 9 obs convention).
package provenance

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"lbtrust/internal/datalog"
)

// DefaultMemBytes caps a workspace's derivation DAG when the caller does
// not choose a budget. The unit is datalog.TupleCost bytes (the storage
// engine's ~64+16·arity model), so the knob composes with the evaluator's
// memory limits.
const DefaultMemBytes = 16 << 20

// Derivation is one recorded proof step: the rule that fired and the body
// facts it consumed, in the evaluator's join-plan order.
type Derivation struct {
	// Rule is the single-head compiled source rule. It is shared with the
	// workspace's loaded rule set, so a Derivation costs pointers, not a
	// rule copy.
	Rule *datalog.Rule
	// Premises are the positive body facts this instantiation matched.
	Premises []datalog.Premise
}

// Remote is leaf provenance for a tuple that arrived from another node
// via dist Sync: which node exported it, which principal said it, and the
// envelope trace ID it rode in on — enough to resume the proof on the
// origin node.
type Remote struct {
	Node   string // origin node (Envelope.From)
	Sender string // exporting principal (Envelope.Sender)
	Trace  string // envelope trace ID, "" when the Sync was untraced
}

// Proof is an explanation tree for one tuple. Interior nodes carry the
// rule and its premise subtrees; leaves are base facts (Base), remote
// deliveries (Remote non-nil), already-expanded tuples on the same path
// (Cycle — recursive rules), or tuples whose derivation was dropped by
// the memory cap (Truncated).
type Proof struct {
	Pred      string
	Tuple     datalog.Tuple
	Rule      *datalog.Rule // nil at leaves
	Premises  []*Proof      // nil at leaves
	Base      bool          // no recorded derivation: asserted base fact
	Remote    *Remote       // non-nil: delivered by Sync from another node
	Cycle     bool          // tuple already expanded on this path
	Truncated bool          // derivation existed but was dropped by the cap

	// Activation is the proof of the active(R) credential that activated
	// this step's rule, when the rule was installed through the active
	// table (a says-activated quoted rule) rather than loaded statically.
	// It is what lets a proof of a fact derived by a said rule descend
	// through the says chain to the credential that authorized the rule —
	// down to the remote Sync leaf when the credential crossed nodes. The
	// store cannot fill it (activation is workspace state); the workspace
	// attaches it after Explain.
	Activation *Proof
}

// Store is one workspace's bounded derivation DAG. All methods are safe
// for concurrent use and no-ops on a nil receiver.
type Store struct {
	mu      sync.Mutex
	derivs  map[string][]Derivation
	remotes map[string]Remote
	// seen holds the full fact+derivation keys already recorded, so the
	// hot path (Observe fires pre-dedup on every fixpoint revisit)
	// dedups with one map probe instead of re-keying stored entries.
	seen map[string]struct{}
	// ruleStr memoizes Rule.String() by pointer: rules are shared with
	// the loaded rule set, and formatting one per Observe call would
	// dominate capture cost.
	ruleStr   map[*datalog.Rule]string
	limit     int64 // cap on memUsed, in TupleCost bytes
	memUsed   int64
	remoteMem int64 // portion of memUsed held by remote leaves
	dropped   int64 // derivations discarded because the cap was hit
}

// NewStore returns an empty store capped at limitBytes of TupleCost
// accounting (<= 0 selects DefaultMemBytes).
func NewStore(limitBytes int64) *Store {
	if limitBytes <= 0 {
		limitBytes = DefaultMemBytes
	}
	return &Store{
		derivs:  map[string][]Derivation{},
		remotes: map[string]Remote{},
		seen:    map[string]struct{}{},
		ruleStr: map[*datalog.Rule]string{},
		limit:   limitBytes,
	}
}

func key(pred string, t datalog.Tuple) string { return pred + "\x00" + t.Key() }

// derivationKey canonically identifies one derivation of a fact, for
// dedup: Observe fires on every instantiation, and fixpoint iteration
// revisits the same (rule, premises) many times.
func derivationKey(r *datalog.Rule, premises []datalog.Premise) string {
	k := r.Label + "\x00" + r.String()
	for _, p := range premises {
		k += "\x00" + p.Pred + "\x01" + p.Tuple.Key()
	}
	return k
}

// Record stores one derivation step, as reported by the evaluator's
// Observe hook. premises may be the evaluator's scratch slice: Record
// copies what it keeps, so the caller may reuse the slice once Record
// returns.
func (s *Store) Record(pred string, t datalog.Tuple, r *datalog.Rule, premises []datalog.Premise) {
	if s == nil || r == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.ruleStr[r]
	if !ok {
		rs = r.Label + "\x00" + r.String()
		s.ruleStr[r] = rs
	}
	var b strings.Builder
	b.Grow(len(pred) + len(rs) + 64)
	b.WriteString(pred)
	b.WriteByte(0)
	b.WriteString(t.Key())
	b.WriteByte(2)
	b.WriteString(rs)
	for _, p := range premises {
		b.WriteByte(0)
		b.WriteString(p.Pred)
		b.WriteByte(1)
		b.WriteString(p.Tuple.Key())
	}
	full := b.String()
	if _, ok := s.seen[full]; ok {
		return
	}
	cost := datalog.TupleCost(t)
	for _, p := range premises {
		cost += datalog.TupleCost(p.Tuple)
	}
	if s.memUsed+cost > s.limit {
		s.dropped++
		return
	}
	s.seen[full] = struct{}{}
	s.memUsed += cost
	ps := make([]datalog.Premise, len(premises))
	copy(ps, premises)
	k := key(pred, t)
	s.derivs[k] = append(s.derivs[k], Derivation{Rule: r, Premises: ps})
}

// RecordRemote stores leaf provenance for a tuple delivered by Sync.
// Remote leaves survive ResetDerivations: a delivery happens once and
// cannot be re-captured by re-running evaluation.
func (s *Store) RecordRemote(pred string, t datalog.Tuple, origin Remote) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := key(pred, t)
	if _, ok := s.remotes[k]; ok {
		return // first delivery wins: that is where the tuple came from
	}
	s.remotes[k] = origin
	s.memUsed += datalog.TupleCost(t)
	s.remoteMem += datalog.TupleCost(t)
}

// ResetDerivations drops every recorded derivation (but keeps remote
// leaves) so a retraction-driven rebuild can re-capture the DAG from the
// full re-evaluation that follows. Dropped-by-cap counters reset too: the
// new fixpoint starts from a clean budget.
func (s *Store) ResetDerivations() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.derivs = map[string][]Derivation{}
	s.seen = map[string]struct{}{}
	s.dropped = 0
	// Remote leaves stay accounted: they survive the reset.
	s.memUsed = s.remoteMem
}

// Derivations returns the recorded derivations of one tuple (nil when
// none — a base fact or a dropped entry).
func (s *Store) Derivations(pred string, t datalog.Tuple) []Derivation {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ds := s.derivs[key(pred, t)]
	out := make([]Derivation, len(ds))
	copy(out, ds)
	return out
}

// RemoteOrigin returns the recorded Sync origin of a tuple, if any.
func (s *Store) RemoteOrigin(pred string, t datalog.Tuple) (Remote, bool) {
	if s == nil {
		return Remote{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.remotes[key(pred, t)]
	return r, ok
}

// Stats reports the store's accounting: recorded facts, bytes used
// against the cap, and derivations dropped because the cap was hit.
func (s *Store) Stats() (facts int, memUsed, limit, dropped int64) {
	if s == nil {
		return 0, 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.derivs), s.memUsed, s.limit, s.dropped
}

// Explain builds the proof tree for one tuple. The tree is deterministic:
// when a fact has several recorded derivations the lexicographically
// smallest (by rule text, then premise keys) is chosen, and premise
// subtrees appear in recorded order. Sharing in the DAG is unfolded into
// a tree, with Cycle leaves guarding recursive rules and Truncated leaves
// marking facts whose derivation the memory cap dropped.
func (s *Store) Explain(pred string, t datalog.Tuple) *Proof {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.explainLocked(pred, t, map[string]bool{})
}

func (s *Store) explainLocked(pred string, t datalog.Tuple, path map[string]bool) *Proof {
	k := key(pred, t)
	p := &Proof{Pred: pred, Tuple: t}
	if r, ok := s.remotes[k]; ok {
		rc := r
		p.Remote = &rc
		return p
	}
	if path[k] {
		p.Cycle = true
		return p
	}
	ds := s.derivs[k]
	if len(ds) == 0 {
		if s.dropped > 0 {
			// The cap dropped derivations somewhere; this leaf may be a
			// base fact or a casualty — without the entry we cannot tell,
			// so mark honestly when anything was dropped and the fact is
			// not obviously base. Callers that know the base relations can
			// refine; the wire shape keeps both bits.
			p.Truncated = true
		}
		p.Base = true
		return p
	}
	best := 0
	if len(ds) > 1 {
		keys := make([]string, len(ds))
		for i, d := range ds {
			keys[i] = derivationKey(d.Rule, d.Premises)
		}
		best = 0
		for i := 1; i < len(keys); i++ {
			if keys[i] < keys[best] {
				best = i
			}
		}
	}
	d := ds[best]
	p.Rule = d.Rule
	path[k] = true
	for _, prem := range d.Premises {
		p.Premises = append(p.Premises, s.explainLocked(prem.Pred, prem.Tuple, path))
	}
	delete(path, k)
	return p
}

// Render returns the proof as an indented plain-text tree, one fact per
// line with its justification: the rule label for derived facts,
// "[base fact]" for asserted leaves, the origin node and trace for
// remote leaves, and markers for cycles and cap-truncated entries.
func (p *Proof) Render() string {
	var b strings.Builder
	p.render(&b, 0)
	return b.String()
}

func (p *Proof) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(p.Pred)
	b.WriteString(p.Tuple.String())
	switch {
	case p.Remote != nil:
		fmt.Fprintf(b, "  [from node %s, said by %s", p.Remote.Node, p.Remote.Sender)
		if p.Remote.Trace != "" {
			fmt.Fprintf(b, ", trace %s", p.Remote.Trace)
		}
		b.WriteString("]\n")
	case p.Cycle:
		b.WriteString("  (seen above)\n")
	case p.Rule != nil:
		label := p.Rule.Label
		if label == "" {
			label = p.Rule.String()
		}
		fmt.Fprintf(b, "  [rule %s]\n", label)
		for _, prem := range p.Premises {
			prem.render(b, depth+1)
		}
		if p.Activation != nil {
			b.WriteString(strings.Repeat("  ", depth+1))
			b.WriteString("activated by:\n")
			p.Activation.render(b, depth+2)
		}
	case p.Truncated:
		b.WriteString("  [base fact or dropped by provenance cap]\n")
	default:
		b.WriteString("  [base fact]\n")
	}
}

// SortProofs orders sibling proofs deterministically by predicate then
// tuple key — the stable framing the wire encoding relies on.
func SortProofs(ps []*Proof) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Pred != ps[j].Pred {
			return ps[i].Pred < ps[j].Pred
		}
		return ps[i].Tuple.Key() < ps[j].Tuple.Key()
	})
}
