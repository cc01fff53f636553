package reasoner

import (
	"fmt"
	"testing"

	"inferray/internal/hierarchy"
	"inferray/internal/rdf"
	"inferray/internal/rules"
)

// The FuzzRetract vocabulary: a handful of instances, classes and data
// properties plus the schema and OWL terms the fragments reason over, so
// short scripts reach subsumption chains, compaction, domain/range
// typing, sameAs merging, θ tables and the meta-vocabulary guards.
var (
	fuzzSubjects = []string{"<x0>", "<x1>", "<x2>", "<C0>", "<C1>", "<C2>", "<p0>", "<p1>"}
	fuzzPreds    = []string{
		rdf.RDFType, rdf.RDFSSubClassOf, rdf.RDFSSubPropertyOf, rdf.RDFSDomain, rdf.RDFSRange,
		"<p0>", "<p1>", rdf.OWLSameAs, rdf.OWLEquivalentClass, rdf.OWLInverseOf,
	}
	fuzzObjects = []string{
		"<C0>", "<C1>", "<C2>", "<x0>", "<x1>", "<x2>", "<p0>", "<p1>",
		rdf.OWLClass, rdf.OWLTransitiveProperty, rdf.OWLFunctionalProperty,
		rdf.OWLSymmetricProperty, rdf.RDFSClass, rdf.RDFProperty,
	}
	fuzzFragments = []rules.Fragment{
		rules.RhoDF, rules.RDFSDefault, rules.RDFSFull, rules.RDFSPlus, rules.RDFSPlusFull,
	}
)

// fuzzOp encodes one script operation for the seed corpus: an insert
// (del false) or a retraction of the triple ⟨fuzzSubjects[s],
// fuzzPreds[p], fuzzObjects[o]⟩.
func fuzzOp(del bool, s, p, o byte) []byte {
	k := byte(0)
	if del {
		k = 1
	}
	return []byte{k, s, p, o}
}

func fuzzScript(ops ...[]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}

// sizeReference recomputes the visible closure size from scratch: the
// stored triples plus the virtual triples of a freshly built hierarchy
// index, whose first read takes the rdf:type census by a full scan of
// the type table.
func sizeReference(e *Engine) int {
	if e.hier == nil {
		return e.Main.Size()
	}
	ref := hierarchy.Build(e.rawPairs(e.V.SubClassOf), e.rawPairs(e.V.SubPropertyOf),
		e.V.Type, e.V.SubClassOf, e.V.SubPropertyOf)
	vSC, vSP, vType := (&hierarchy.View{St: e.Main, Idx: ref}).VirtualCounts()
	return e.Main.Size() + vSC + vSP + vType
}

// FuzzRetract runs random insert/retract scripts over a tiny vocabulary
// under every fragment, with the hierarchy encoding on or off. After
// every operation the maintained closure must equal a rematerialization
// of the surviving asserted triples, and Size — read from the maintained
// counts — must equal both the full-scan reference and the number of
// visible triples the engine enumerates.
func FuzzRetract(f *testing.F) {
	// Indexes into the vocabulary above.
	const (
		x0, x1, c0, c1, c2, p0, p1 = 0, 1, 3, 4, 5, 6, 7
		typ, sco, spo, dom, rng    = 0, 1, 2, 3, 4
		pp0                        = 5
		oC0, oC1, oC2, oX1, oP0    = 0, 1, 2, 4, 6
		oOWLClass                  = 8
	)
	// An asserted ⟨x0 type C1⟩ is compacted away once ⟨x0 type C0⟩ is
	// derived through p0's domain (C0 below C1); retracting the data
	// triple overdeletes the derived pair and must bring the asserted one
	// back.
	compacted := fuzzScript(
		fuzzOp(false, c0, sco, oC1),
		fuzzOp(false, x0, typ, oC1),
		fuzzOp(false, p0, dom, oC0),
		fuzzOp(false, x0, pp0, oX1),
		fuzzOp(true, x0, pp0, oX1),
	)
	for fr := range fuzzFragments {
		f.Add(byte(fr), true, compacted)
		f.Add(byte(fr), false, compacted)
	}
	// ⟨C2 type owl:Class⟩ is asserted and also derived through p0's
	// range; retracting the assertion must keep SCM-CLS's four heads,
	// ⟨owl:Nothing subClassOf C2⟩ (anchored at its object) among them.
	for _, encoded := range []bool{true, false} {
		f.Add(byte(4), encoded, fuzzScript(
			fuzzOp(false, c2, typ, oOWLClass),
			fuzzOp(false, p0, rng, oOWLClass),
			fuzzOp(false, x1, pp0, oC2),
			fuzzOp(false, c1, sco, oC2),
			fuzzOp(true, c2, typ, oOWLClass),
		))
	}
	// ⟨p1 domain C0⟩ is asserted and also derivable from p0's domain
	// through p1 subPropertyOf p0 (SCM-DOM2); retracting the assertion
	// must keep it, which the encoded rule finds only from p1's edge.
	f.Add(byte(1), true, fuzzScript(
		fuzzOp(false, p1, spo, oP0),
		fuzzOp(false, p0, dom, oC0),
		fuzzOp(false, p1, dom, oC0),
		fuzzOp(true, p1, dom, oC0),
	))
	f.Add(byte(2), true, fuzzScript(
		fuzzOp(false, c0, sco, oC1),
		fuzzOp(false, c1, sco, oC2),
		fuzzOp(false, x0, typ, oC0),
		fuzzOp(false, x0, typ, oC2),
		fuzzOp(true, x0, typ, oC0),
		fuzzOp(true, c0, sco, oC1),
	))

	f.Fuzz(func(t *testing.T, fragment byte, encoding bool, script []byte) {
		if len(script) > 4*24 {
			script = script[:4*24]
		}
		opts := Options{
			Fragment:          fuzzFragments[int(fragment)%len(fuzzFragments)],
			HierarchyEncoding: encoding,
		}
		e := New(opts)
		e.Materialize()
		for i := 0; i+4 <= len(script); i += 4 {
			op := script[i : i+4]
			tr := rdf.Triple{
				S: fuzzSubjects[int(op[1])%len(fuzzSubjects)],
				P: fuzzPreds[int(op[2])%len(fuzzPreds)],
				O: fuzzObjects[int(op[3])%len(fuzzObjects)],
			}
			if op[0]&1 == 0 {
				e.LoadTriples([]rdf.Triple{tr})
				e.Materialize()
			} else if _, err := e.Retract([]rdf.Triple{tr}); err != nil {
				t.Fatalf("op %d: Retract(%v): %v", i/4, tr, err)
			}
			checkAgainstRemat(t, e, opts, fmt.Sprintf("op %d (%v)", i/4, tr))
			if got, ref, n := e.Size(), sizeReference(e), len(visibleTriples(e)); got != ref || got != n {
				t.Fatalf("op %d (%v): Size() = %d, full-scan reference %d, enumerated %d", i/4, tr, got, ref, n)
			}
		}
	})
}
