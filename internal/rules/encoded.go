package rules

import (
	"inferray/internal/hierarchy"
	"inferray/internal/store"
)

// This file holds the interval-driven rule forms used when the
// hierarchy encoding is active (Context.Hier non-nil). The rules keep
// their Table 5 names — the declarative footprints in spec.go stay
// valid, and the dependency scheduler fires them on the same changed
// sets — but their bodies read the hierarchy index instead of the
// materialized subsumption closure. The correctness argument for each
// form, and for the rules that need no encoded form at all, is laid out
// in DESIGN.md §10.

// encodedSchemaExpand is the interval form of the four schema-expansion
// α rules. For every ⟨p, c⟩ pair of the schema table it emits, into the
// same table, either ⟨p, super⟩ for every visible super of c (up — the
// SCM-DOM1/SCM-RNG1 shape, expanding along subClassOf) or ⟨sub, c⟩ for
// every visible sub of p (down — the SCM-DOM2/SCM-RNG2 shape, expanding
// along subPropertyOf). Semi-naive bookkeeping: normally only the delta
// schema pairs are swept (the hierarchy is unchanged, so old pairs can
// derive nothing new); when the hierarchy itself changed — or on the
// first pass — the whole main schema table is re-swept against the
// fresh intervals.
//
// The down form keys on the super p, but its head ⟨sub, c⟩ is anchored
// at the sub. So the subjects of delta subPropertyOf edges also pull the
// schema pairs of their visible supers down to themselves. A merge round
// that adds such edges re-sweeps everything anyway; the case matters for
// a retraction's rederivation pass, whose delta is the stored
// neighbourhood of the overdeleted triples' anchors.
func encodedSchemaExpand(c *Context, schemaPidx int, rel *hierarchy.Relation, changed, up bool) {
	out := c.Out.Ensure(schemaPidx)
	if c.FirstPass() || changed {
		if t := c.mainTable(schemaPidx); t != nil {
			expandSchemaPairs(out, t.RawPairs(), rel, up)
		}
		return
	}
	if t := c.deltaTable(schemaPidx); t != nil {
		expandSchemaPairs(out, t.RawPairs(), rel, up)
	}
	edges, mt := c.deltaTable(c.V.SubPropertyOf), c.mainTable(schemaPidx)
	if up || edges == nil || mt == nil {
		return
	}
	ep, sp := edges.Pairs(), mt.Pairs()
	for i := 0; i < len(ep); i += 2 {
		sub := ep[i]
		if i > 0 && ep[i-2] == sub {
			continue
		}
		rel.Supers(sub, func(p uint64) bool {
			lo, hi := mt.SubjectRun(p)
			for k := lo; k < hi; k++ {
				out.Append(sub, sp[2*k+1])
			}
			return true
		})
	}
}

// expandSchemaPairs emits the up or down expansion of each ⟨p, c⟩ pair.
func expandSchemaPairs(out *store.Table, pairs []uint64, rel *hierarchy.Relation, up bool) {
	for i := 0; i < len(pairs); i += 2 {
		p, cls := pairs[i], pairs[i+1]
		if up {
			rel.Supers(cls, func(super uint64) bool {
				out.Append(p, super)
				return true
			})
		} else {
			rel.Subs(p, func(sub uint64) bool {
				out.Append(sub, cls)
				return true
			})
		}
	}
}

// minimalClass reports whether cls is a minimal element of property p's
// schema run (its rdfs:domain or rdfs:range class set in the main
// store) under the visible subsumption order. With the encoding active,
// typing instances with the minimal classes suffices: the interval
// expansion supplies every visible super, so ⟨x type c⟩ for a
// non-minimal c is already virtual once ⟨x type min⟩ is stored.
// Mutually subsuming classes (one cyclic strong component) keep the
// smallest id as their sole representative, which keeps the relation
// well-founded.
func minimalClass(c *Context, schemaPidx int, p, cls uint64) bool {
	mt := c.mainTable(schemaPidx)
	if mt == nil {
		return true
	}
	pairs := mt.Pairs()
	lo, hi := mt.SubjectRun(p)
	for i := lo; i < hi; i++ {
		other := pairs[2*i+1]
		if other == cls || !c.Hier.Classes.Subsumes(other, cls) {
			continue
		}
		if !c.Hier.Classes.Subsumes(cls, other) || other < cls {
			return false // other is strictly below, or the cycle representative
		}
	}
	return true
}
