// Durability support: capturing a workspace's full state for snapshots and
// rebuilding a workspace from a snapshot plus a replayed flush journal.
// Replay runs in "load mode": logged tuples are inserted directly into the
// base and full databases and logged rules/constraints are re-installed
// without running evaluation or constraint checks — the log records state
// that was already derived and validated before the crash. Only when the
// journal contains a retraction or rebuilt flush (whose per-tuple delta is
// void by construction) does FinishRestore fall back to recomputing
// derived state from base facts.
package workspace

import (
	"fmt"

	"lbtrust/internal/datalog"
	"lbtrust/internal/meta"
)

// RelationState is the serializable content of one relation.
type RelationState struct {
	Name        string
	Arity       int
	Partitioned bool
	Tuples      []datalog.Tuple
}

// WorkspaceState is a serializable snapshot of one workspace: everything
// needed to rebuild it byte-identically without re-running evaluation.
// Check-evaluator state (aux relations, fail facts) is deliberately
// excluded — the first post-restore flush with checks rebuilds it with one
// full constraint pass.
type WorkspaceState struct {
	Principal string
	AuxSeq    int
	Decls     []Decl
	// Rules lists every active rule in activation order (owner-installed
	// and derived-activated alike).
	Rules []RuleChange
	// Constraints lists the compiled (non-declaration-only) constraints in
	// installation order, with their original aux ids.
	Constraints []ConstraintChange
	// Base holds the asserted ground-truth relations; Derived holds the
	// remaining database content (derived tuples and meta facts), i.e. the
	// full database minus the base facts, so the snapshot stores each
	// tuple once.
	Base    []RelationState
	Derived []RelationState
}

// checkStatePred reports relations that hold check-evaluator state, which
// snapshots skip: aux relations are rebuilt by the first full check after
// restore, and fail relations are empty in any committed state.
func checkStatePred(name string) bool {
	if len(name) >= len(auxPredPrefix) && name[:len(auxPredPrefix)] == auxPredPrefix {
		return true
	}
	return name == failPred || name == "fail"
}

// CaptureState snapshots the workspace's full state. Tuples are shared
// with the live database (they are immutable); relation contents are
// sorted so identical states serialize identically.
//
// The workspace lock is held only for the O(1)-per-relation copy-on-write
// clones plus the schema copies — materializing and sorting the tuples
// (the expensive part, proportional to total database size) happens after
// the lock is released, so a large snapshot capture no longer stalls
// concurrent flushes.
func (w *Workspace) CaptureState() *WorkspaceState {
	w.mu.Lock()
	st := &WorkspaceState{
		Principal: string(w.principal),
		AuxSeq:    w.auxSeq,
	}
	for _, d := range w.decls {
		st.Decls = append(st.Decls, d)
	}
	sortDecls(st.Decls)
	for _, k := range w.activeOrder {
		e := w.active[k]
		st.Rules = append(st.Rules, RuleChange{Code: e.code, Owner: e.owner, Derived: e.derived})
	}
	for _, cc := range w.constraints {
		st.Constraints = append(st.Constraints, ConstraintChange{AuxID: cc.auxID, Label: cc.label, Source: cc.source})
	}
	type capturedRel struct {
		name string
		rel  *datalog.Relation // COW clone, private to the capture
		base *datalog.Relation // COW clone of the base overlay, derived pass only
	}
	var baseRels, derivedRels []capturedRel
	for _, name := range w.base.Names() {
		rel, _ := w.base.Get(name)
		baseRels = append(baseRels, capturedRel{name: name, rel: rel.Clone()})
	}
	for _, name := range w.db.Names() {
		if checkStatePred(name) {
			continue
		}
		rel, _ := w.db.Get(name)
		cr := capturedRel{name: name, rel: rel.Clone()}
		if base, ok := w.base.Get(name); ok {
			cr.base = base.Clone()
		}
		derivedRels = append(derivedRels, cr)
	}
	w.mu.Unlock()

	for _, cr := range baseRels {
		st.Base = append(st.Base, RelationState{
			Name: cr.name, Arity: cr.rel.Arity, Partitioned: cr.rel.Partitioned, Tuples: cr.rel.Sorted(),
		})
	}
	for _, cr := range derivedRels {
		var tuples []datalog.Tuple
		for _, t := range cr.rel.Sorted() {
			if cr.base != nil && cr.base.Contains(t) {
				continue
			}
			tuples = append(tuples, t)
		}
		if len(tuples) == 0 {
			continue
		}
		st.Derived = append(st.Derived, RelationState{
			Name: cr.name, Arity: cr.rel.Arity, Partitioned: cr.rel.Partitioned, Tuples: tuples,
		})
	}
	return st
}

func sortDecls(ds []Decl) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Name < ds[j-1].Name; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// RestoreState loads a snapshot into a freshly created workspace (one with
// no data, rules, or constraints yet — built-ins may already be
// registered). No evaluation runs; call ApplyJournal for each logged flush
// after the snapshot, then FinishRestore.
func (w *Workspace) RestoreState(st *WorkspaceState) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if string(w.principal) != st.Principal {
		return fmt.Errorf("workspace: restoring state of %q into workspace of %q", st.Principal, w.principal)
	}
	if len(w.activeOrder) != 0 || w.base.TupleCount() != 0 {
		return fmt.Errorf("workspace: RestoreState requires a fresh workspace")
	}
	for _, d := range st.Decls {
		w.registerDecl(d)
	}
	if st.AuxSeq > w.auxSeq {
		w.auxSeq = st.AuxSeq
	}
	for _, c := range st.Constraints {
		if err := w.installConstraintLocked(c); err != nil {
			return err
		}
	}
	for _, r := range st.Rules {
		if err := w.installRuleLocked(r); err != nil {
			return err
		}
	}
	for _, rs := range st.Base {
		rel := w.baseRel(rs.Name, rs.Arity)
		rel.Partitioned = rel.Partitioned || rs.Partitioned
		dst := w.db.Rel(rs.Name, rs.Arity)
		dst.Partitioned = dst.Partitioned || rs.Partitioned
		for _, t := range rs.Tuples {
			rel.Insert(t)
			dst.Insert(t)
		}
	}
	for _, rs := range st.Derived {
		dst := w.db.Rel(rs.Name, rs.Arity)
		dst.Partitioned = dst.Partitioned || rs.Partitioned
		for _, t := range rs.Tuples {
			dst.Insert(t)
		}
	}
	w.rulesChanged = true
	w.constraintsChanged = true
	w.snap.Store(nil)
	return nil
}

// installConstraintLocked re-compiles a logged constraint under its
// original aux id. Replay must be idempotent (a checkpoint can capture
// state whose journal record lands in the rotated log), so a constraint
// whose exact (auxID, label, source) is already installed is skipped;
// distinct installations of an identical constraint have distinct aux ids
// and both replay.
func (w *Workspace) installConstraintLocked(change ConstraintChange) error {
	for _, cc := range w.constraints {
		if cc.auxID == change.AuxID && cc.label == change.Label && cc.source == change.Source {
			return nil
		}
	}
	c, err := datalog.ParseConstraint(change.Source, change.Label)
	if err != nil {
		return fmt.Errorf("workspace: restoring constraint %q: %w", change.Label, err)
	}
	cc, decls, err := compileConstraint(c, change.AuxID, w.principal)
	if err != nil {
		return fmt.Errorf("workspace: restoring constraint %q: %w", change.Label, err)
	}
	for _, d := range decls {
		w.registerDecl(d)
	}
	if change.AuxID > w.auxSeq {
		w.auxSeq = change.AuxID
	}
	if cc != nil {
		cc.auxID = change.AuxID
		cc.source = change.Source
		w.constraints = append(w.constraints, cc)
	}
	w.constraintsChanged = true
	return nil
}

// installRuleLocked re-activates a logged rule. Idempotent: the active
// table is keyed by code.
func (w *Workspace) installRuleLocked(change RuleChange) error {
	key := change.Code.Key()
	if _, ok := w.active[key]; ok {
		return nil
	}
	entry, err := newRuleEntry(change.Code, change.Code.Rule(), change.Owner)
	if err != nil {
		return fmt.Errorf("workspace: restoring rule %s: %w", change.Code.String(), err)
	}
	entry.derived = change.Derived
	w.active[key] = entry
	w.activeOrder = append(w.activeOrder, key)
	w.rulesChanged = true
	if entry.isCheck {
		w.constraintsChanged = true
	}
	return nil
}

// ApplyJournal replays one logged flush in load mode: base changes and the
// logged derived delta are applied directly, with no evaluation. Replay is
// idempotent, so a flush that is both captured in the snapshot and present
// in the log applies cleanly. Schema changes replay in their recorded
// order, so a transaction that adds and then removes the same rule lands
// removed, exactly as it committed.
func (w *Workspace) ApplyJournal(j *FlushJournal) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, op := range j.Schema {
		switch op.Kind {
		case SchemaConstraintRemove:
			kept := w.constraints[:0]
			for _, cc := range w.constraints {
				if cc.label == op.Label {
					if rel, ok := w.db.Get(cc.auxPred); ok {
						rel.Clear()
					}
					w.constraintsChanged = true
					continue
				}
				kept = append(kept, cc)
			}
			w.constraints = kept
		case SchemaRuleRemove:
			key := op.Code.Key()
			if _, ok := w.active[key]; !ok {
				continue
			}
			delete(w.active, key)
			for i, k := range w.activeOrder {
				if k == key {
					w.activeOrder = append(w.activeOrder[:i], w.activeOrder[i+1:]...)
					break
				}
			}
			w.rulesChanged = true
		case SchemaConstraintAdd:
			if err := w.installConstraintLocked(op.Constraint); err != nil {
				return err
			}
		case SchemaRuleAdd:
			if err := w.installRuleLocked(op.Rule); err != nil {
				return err
			}
		default:
			return fmt.Errorf("workspace: unknown schema change kind %d", op.Kind)
		}
	}
	for _, f := range j.Facts {
		if f.Retract {
			if rel, ok := w.base.Get(f.Pred); ok && rel.Delete(f.Tuple) {
				w.restoreRebuild = true
			}
			continue
		}
		w.baseRel(f.Pred, f.Tuple.Len()).Insert(f.Tuple)
		w.db.Rel(f.Pred, f.Tuple.Len()).Insert(f.Tuple)
	}
	if j.Rebuilt {
		w.restoreRebuild = true
	}
	if !w.restoreRebuild {
		for pred, tuples := range j.Changed {
			if len(tuples) == 0 {
				continue
			}
			dst := w.db.Rel(pred, tuples[0].Len())
			for _, t := range tuples {
				dst.Insert(t)
			}
		}
	}
	w.snap.Store(nil)
	return nil
}

// FinishRestore completes a restore. When the replayed journal contained
// retractions or rebuilt flushes, derived state is recomputed from base
// facts (the logged deltas stopped being authoritative at that point);
// otherwise the restored database is complete and only the bookkeeping is
// rebuilt: the meta model re-adopts the database and the user evaluator
// recompiles its rules, so the next Update runs incrementally.
// constraintsChanged stays set either way — the first post-restore flush
// with checks runs one full constraint pass, rebuilding the aux relations
// that snapshots and the log do not carry.
func (w *Workspace) FinishRestore() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.restoreRebuild {
		w.restoreRebuild = false
		if err := w.rebuildDerivedLocked(); err != nil {
			return err
		}
		return w.runFixpointLocked(nil)
	}
	w.model = meta.AdoptModel(w.db)
	return w.refreshRulesLocked()
}
