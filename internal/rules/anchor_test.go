package rules

import "testing"

// TestRuleHeadsAnchored pins the invariant the reasoner's retraction
// relies on to rederive from a neighbourhood instead of the whole
// closure: every head pattern of every fragment's rules has an anchor —
// its subject, or its object when the subject is a constant (SCM-CLS's
// owl:Nothing subClassOf c) — that is a variable occurring at the
// subject or object position of some body pattern. A derivation of a
// head triple then always uses a body triple carrying the anchor's
// binding at S or O, which is what the rederivation pass seeds.
func TestRuleHeadsAnchored(t *testing.T) {
	v := testVocab()
	for _, f := range allFragments() {
		for _, sp := range Specs(f, v) {
			for _, h := range sp.Head {
				anchor := h.S
				if !anchor.IsVar {
					anchor = h.O
				}
				if !anchor.IsVar {
					t.Errorf("%s: %s head %+v has neither a variable subject nor a variable object", f, sp.Name, h)
					continue
				}
				found := false
				for _, b := range sp.Body {
					if (b.S.IsVar && b.S.Var == anchor.Var) || (b.O.IsVar && b.O.Var == anchor.Var) {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: %s head %+v: anchor ?%d is at no body subject or object", f, sp.Name, h, anchor.Var)
				}
			}
		}
	}
}
