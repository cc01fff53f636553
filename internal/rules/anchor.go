package rules

import "inferray/internal/dictionary"

// Anchor names, for one head pattern of a rule, the body triples a
// retraction's rederivation must put in its delta to find every
// derivation of a head triple again: the stored triples of table Prop
// (of every table when Prop < 0) whose subject — or object, when Object
// — equals the head triple's subject — or object, when FromObject. Every
// derivation uses one such triple, so a semi-naive pass over them finds
// it (DESIGN.md §11).
type Anchor struct {
	Head       Pattern
	FromObject bool
	Prop       int
	Object     bool
	// Binder, for a variable-predicate body pattern (Prop < 0), names
	// the properties the pattern can match: the predicate variable also
	// sits at the subject — or object, when BinderObject — of a body
	// pattern over table Binder (PRP-RNG's ⟨p range c⟩, PRP-INV2's
	// ⟨p1 inverseOf p⟩), so a matching property occurs there. -1 when
	// no body pattern binds it. BinderConst is that pattern's other
	// term when it is a constant (PRP-SYMP's owl:SymmetricProperty in
	// ⟨p type owl:SymmetricProperty⟩), 0 otherwise.
	Binder       int
	BinderObject bool
	BinderConst  uint64
}

// Anchors returns one Anchor per head pattern of every spec the rule
// implements. Populated by AnnotateFootprints.
func (r *Rule) Anchors() []Anchor { return r.anchors }

// Matches reports whether the triple ⟨s, p, o⟩ of table pidx is an
// instance of the anchor's head pattern.
func (a Anchor) Matches(pidx int, s, o uint64) bool {
	h := a.Head
	return (h.P.IsVar || h.P.Const == dictionary.PropID(pidx)) &&
		(h.S.IsVar || h.S.Const == s) && (h.O.IsVar || h.O.Const == o)
}

// Value returns the anchor term of a head triple ⟨s, ·, o⟩.
func (a Anchor) Value(s, o uint64) uint64 {
	if a.FromObject {
		return o
	}
	return s
}

// headAnchor picks the anchor of head pattern h of sp. A head variable
// (subject first, then object) at the subject of a body pattern wins: a
// subject run is a binary search over a table's primary ⟨s,o⟩ list.
// Otherwise the head's subject — its object when the subject is a
// constant, as in SCM-CLS's ⟨owl:Nothing subClassOf c⟩ — is looked up at
// the object of a body pattern, which needs that table's ⟨o,s⟩ view.
// ok is false when neither applies (TestRuleHeadsAnchored).
func headAnchor(sp *Spec, h Pattern) (a Anchor, ok bool) {
	if a, ok = bodyAnchor(sp, h, false, false); ok {
		return a, true
	}
	if a, ok = bodyAnchor(sp, h, true, false); ok {
		return a, true
	}
	return bodyAnchor(sp, h, !h.S.IsVar, true)
}

// bodyAnchor looks for a body pattern of sp carrying the head's subject
// (or object, fromObject) variable at its subject (or object, object),
// preferring one with a constant predicate.
func bodyAnchor(sp *Spec, h Pattern, fromObject, object bool) (Anchor, bool) {
	v := h.S
	if fromObject {
		v = h.O
	}
	if !v.IsVar {
		return Anchor{}, false
	}
	var best *Pattern
	for i := range sp.Body {
		b := &sp.Body[i]
		at := b.S
		if object {
			at = b.O
		}
		if at.IsVar && at.Var == v.Var && (best == nil || best.P.IsVar) {
			best = b
		}
	}
	if best == nil {
		return Anchor{}, false
	}
	a := Anchor{Head: h, FromObject: fromObject, Object: object, Prop: -1, Binder: -1}
	if !best.P.IsVar {
		a.Prop = dictionary.PropIndex(best.P.Const)
		return a, true
	}
	for _, atObject := range []bool{false, true} {
		for _, b := range sp.Body {
			at, other := b.S, b.O
			if atObject {
				at, other = b.O, b.S
			}
			if a.Binder < 0 && !b.P.IsVar && at.IsVar && at.Var == best.P.Var {
				a.Binder, a.BinderObject = dictionary.PropIndex(b.P.Const), atObject
				if !other.IsVar {
					a.BinderConst = other.Const
				}
			}
		}
	}
	return a, true
}
