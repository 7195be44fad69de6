package core

import (
	"fmt"

	"lbtrust/internal/workspace"
)

// EnableDelegation installs the Section 4.2 delegation rule set
// (delegates/del1 plus depth restrictions dd0-dd4) into the principal's
// context.
func (p *Principal) EnableDelegation() error {
	return p.ws.LoadProgram(DelegationProgram)
}

// EnableDelegationWidth installs the width-restriction rules (Section
// 4.2.1); requires EnableDelegation.
func (p *Principal) EnableDelegationWidth() error {
	return p.ws.LoadProgram(WidthProgram)
}

// EnableAuthorization installs the mayRead/mayWrite meta-constraints of
// Section 4.1. After this, rules said to the principal are only accepted
// when the sender has been granted the corresponding rights.
func (p *Principal) EnableAuthorization() error {
	return p.ws.LoadProgram(AuthorizationProgram)
}

// EnablePull installs the top-down-to-bottom-up rewrite (pull0/pull1 of
// Section 5.1): rules importing remote data dispatch request facts, and
// requests are answered from the local active table.
func (p *Principal) EnablePull() error {
	return p.ws.LoadProgram(PullProgram)
}

// Delegate records that this principal delegates predicate pred to another
// principal: delegates(me, to, pred). del1 then generates the speaks-for
// rule restricted to pred. The predicate is registered in the meta-model's
// predicate table to satisfy del0's type constraint.
func (p *Principal) Delegate(to, pred string) error {
	return p.ws.Update(func(tx *workspace.Tx) error {
		if err := tx.Assert(fmt.Sprintf("predicate(%s)", pred)); err != nil {
			return err
		}
		if err := tx.Assert(fmt.Sprintf(`pname(%s, %q)`, pred, pred)); err != nil {
			return err
		}
		return tx.Assert(fmt.Sprintf("delegates(me, %s, %s)", to, pred))
	})
}

// SetDelegationDepth declares a delegation depth bound for a delegatee:
// delDepth(me, to, pred, n). The dd rules propagate decremented bounds
// down the chain and dd4 rejects delegation beyond the bound.
func (p *Principal) SetDelegationDepth(to, pred string, n int) error {
	return p.ws.Update(func(tx *workspace.Tx) error {
		if err := tx.Assert(fmt.Sprintf("predicate(%s)", pred)); err != nil {
			return err
		}
		return tx.Assert(fmt.Sprintf("delDepth(me, %s, %s, %d)", to, pred, n))
	})
}

// SetDelegationWidth restricts a delegation chain for pred to principals
// in the named group.
func (p *Principal) SetDelegationWidth(to, pred, group string) error {
	return p.ws.Update(func(tx *workspace.Tx) error {
		if err := tx.Assert(fmt.Sprintf("predicate(%s)", pred)); err != nil {
			return err
		}
		return tx.Assert(fmt.Sprintf("delWidth(me, %s, %s, %s)", to, pred, group))
	})
}

// GrantWrite grants mayWrite(to, pred) in this principal's context.
func (p *Principal) GrantWrite(to, pred string) error {
	return p.ws.Update(func(tx *workspace.Tx) error {
		return tx.Assert(fmt.Sprintf("mayWrite(%s, %s)", to, pred))
	})
}

// JoinGroup records pringroup(member, group), used by width restrictions
// and threshold structures.
func (p *Principal) JoinGroup(member, group string) error {
	return p.ws.Update(func(tx *workspace.Tx) error {
		return tx.Assert(fmt.Sprintf("pringroup(%s, %s)", member, group))
	})
}
