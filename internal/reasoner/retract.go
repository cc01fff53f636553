package reasoner

import (
	"fmt"
	"slices"
	"time"

	"inferray/internal/dictionary"
	"inferray/internal/rdf"
	"inferray/internal/rules"
	"inferray/internal/store"
)

// RetractStats reports what one retraction did.
//
// The engine maintains the closure under deletion DRed-style
// (delete-and-rederive): overdelete everything the deleted triples could
// have contributed to — by firing the dependency-scheduled rules forward
// from the deleted set against the still-intact closure — then rederive
// the overdeleted triples that survive on other support, through the
// same incremental machinery insertions use. See DESIGN.md §11.
type RetractStats struct {
	Requested   int // triples in the delete batch
	Retracted   int // batch triples that were actually asserted (the rest are no-ops)
	Overdeleted int // stored triples removed by the overdeletion phase
	Rederived   int // overdeleted triples restored because they survive on other support

	TotalTriples int // visible closure size after the retraction
	Iterations   int // overdeletion + rederivation fixpoint iterations

	// EncodingDropped reports that this retraction touched a
	// subClassOf/subPropertyOf edge while the hierarchy encoding was
	// active: the virtual closure was expanded into the store and the
	// encoding permanently bypassed (same sticky fallback as the
	// meta-vocabulary guards).
	EncodingDropped bool

	OverdeleteTime time.Duration
	RederiveTime   time.Duration
	TotalTime      time.Duration
}

// Retract removes a batch of asserted triples and incrementally repairs
// the closure, leaving exactly the store a full rematerialization of the
// surviving asserted triples would produce. Batch entries that are not
// currently asserted — unknown terms, never loaded, or derived-only —
// are ignored (SPARQL DELETE DATA semantics: deleting an absent triple
// is not an error).
//
// The engine must be materialized, with no staged delta pending.
func (e *Engine) Retract(batch []rdf.Triple) (RetractStats, error) {
	start := time.Now()
	st := RetractStats{Requested: len(batch)}
	if !e.materialized {
		return st, fmt.Errorf("reasoner: Retract before Materialize")
	}
	if e.staged != nil && e.staged.Size() > 0 {
		return st, fmt.Errorf("reasoner: staged triples pending; Materialize before Retract")
	}

	// Resolve the batch against the asserted record. Only asserted
	// triples seed a retraction: a derived triple has no independent
	// existence to retract, and an unknown term cannot name anything.
	slots := e.Main.NumSlots()
	del := store.New(slots)
	for _, t := range batch {
		p, ok := e.Dict.Lookup(t.P)
		if !ok || !dictionary.IsProperty(p) {
			continue
		}
		s, ok := e.Dict.Lookup(t.S)
		if !ok {
			continue
		}
		o, ok := e.Dict.Lookup(t.O)
		if !ok {
			continue
		}
		pidx := dictionary.PropIndex(p)
		if e.asserted.Contains(pidx, s, o) {
			del.Add(pidx, s, o)
		}
	}
	del.Normalize()
	st.Retracted = del.Size()
	if st.Retracted == 0 {
		st.TotalTriples = e.Size()
		st.TotalTime = time.Since(start)
		e.recordRetract(&st)
		return st, nil
	}
	e.asserted.Delete(del)
	e.input -= st.Retracted
	if e.mayDemote(del) && e.unjustifiedProperty() {
		e.rebuild()
		st.TotalTriples = e.Size()
		st.TotalTime = time.Since(start)
		e.recordRetract(&st)
		return st, nil
	}

	// Phase 1: overdeletion. Retried at most once, when a schema-edge
	// delete forces the hierarchy encoding to expand first.
	e.hierClassChanged, e.hierPropChanged = false, false
	overStart := time.Now()
	var over *store.Store
	for {
		var retry bool
		over, retry = e.overdelete(del, &st)
		if !retry {
			break
		}
	}
	st.OverdeleteTime = time.Since(overStart)
	st.Overdeleted = over.Size()
	if st.Overdeleted == 0 {
		// Nothing stored depended on the deleted triples (e.g. they were
		// compacted type pairs the interval index still serves).
		st.TotalTriples = e.Size()
		st.TotalTime = time.Since(start)
		e.recordRetract(&st)
		return st, nil
	}

	// Phase 2: physical deletion, then rederivation of survivors. An
	// overdeleted triple survives either by assertion (reseeded from the
	// asserted record) or by a derivation from the triples that remain.
	// Every rule head has an anchor variable that sits at S or O of one
	// of its body atoms (TestRuleHeadsAnchored), so one semi-naive pass
	// of the rules writing into a deleted table, with the stored body
	// triples carrying the overdeleted triples' anchors as its delta
	// (neighbourhood), finds every such derivation. Its output and the
	// reseed then flow through the ordinary incremental fixpoint, which
	// also re-closes any θ table the deletion opened up (the reseeded
	// raw edges are in the delta, so θ re-fires on them).
	rederiveStart := time.Now()
	e.deleteStored(over)
	storedAfterDelete := e.Main.Size()
	writers := e.writersOf(over)
	seed := e.runRules(writers, e.neighbourhood(over, writers))
	e.reseedAsserted(over, seed)
	delta, changed := store.MergeRound(e.Main, seed, e.opts.Parallel)
	delta, changed = e.maintainHier(delta, changed)
	if delta.Size() > 0 {
		var fs Stats
		e.fixpoint(delta, changed, false, &fs)
		st.Iterations += fs.Iterations
	}

	st.Rederived = e.Main.Size() - storedAfterDelete
	st.RederiveTime = time.Since(rederiveStart)
	st.TotalTriples = e.Size()
	st.TotalTime = time.Since(start)
	e.recordRetract(&st)
	return st, nil
}

// overdelete computes the overdeletion set: every stored triple with a
// derivation path from the deleted set, found by firing the
// read-triggered rules forward from the deleted triples against the
// still-intact closure and intersecting each round's output with the
// store. Nothing is physically deleted here.
//
// Returns retry=true when a subClassOf/subPropertyOf edge entered the
// frontier while the hierarchy encoding was active: the interval index
// cannot subtract edges, so the virtual closure is expanded into the
// store, the encoding is bypassed (sticky, mirroring the guard
// machinery), and the caller restarts against the expanded store — safe
// because the closure is still intact.
func (e *Engine) overdelete(del *store.Store, st *RetractStats) (*store.Store, bool) {
	slots := e.Main.NumSlots()
	over := store.New(slots)
	frontier := store.New(slots)
	del.ForEachTable(func(pidx int, dt *store.Table) bool {
		mt := e.Main.Table(pidx)
		if mt == nil || mt.Empty() {
			return true
		}
		p := dt.Pairs()
		for i := 0; i < len(p); i += 2 {
			if mt.Contains(p[i], p[i+1]) {
				over.Add(pidx, p[i], p[i+1])
				frontier.Add(pidx, p[i], p[i+1])
			}
		}
		return true
	})
	over.Normalize()
	frontier.Normalize()

	touches := func(s *store.Store, pidx int) bool {
		t := s.Table(pidx)
		return t != nil && !t.Empty()
	}
	trans := e.transitiveTables()
	wiped := make(map[int]bool)

	for frontier.Size() > 0 {
		st.Iterations++
		if e.hier != nil &&
			(touches(frontier, e.V.SubClassOf) || touches(frontier, e.V.SubPropertyOf)) {
			e.expandRestoredClosure()
			e.hier = nil
			e.hierBypassed = true
			st.EncodingDropped = true
			return nil, true
		}
		// θ emits nothing new on an already-closed table, so rule firing
		// alone cannot trace transitive consequences of a deleted edge.
		// When the frontier reaches a θ-closed table, conservatively
		// overdelete the whole table (once); rederivation restores the
		// surviving asserted edges and the fixpoint re-closes them.
		for _, pidx := range trans {
			if wiped[pidx] || !touches(frontier, pidx) {
				continue
			}
			wiped[pidx] = true
			mt := e.Main.Table(pidx)
			if mt == nil || mt.Empty() {
				continue
			}
			pr := mt.Pairs()
			var adds []uint64
			for i := 0; i < len(pr); i += 2 {
				if !over.Contains(pidx, pr[i], pr[i+1]) {
					adds = append(adds, pr[i], pr[i+1])
				}
			}
			if len(adds) > 0 {
				over.Ensure(pidx).AppendPairs(adds)
				frontier.Ensure(pidx).AppendPairs(adds)
			}
		}
		over.Normalize()
		frontier.Normalize()

		// Fire the rules whose read footprint meets the frontier, with
		// the frontier as the delta and the intact closure as main — the
		// standard semi-naive passes, repurposed: anything they infer
		// that is physically stored may depend on the deleted set.
		mask := make([]bool, slots)
		frontier.ForEachTable(func(pidx int, t *store.Table) bool {
			if pidx < slots {
				mask[pidx] = true
			}
			return true
		})
		var runnable []int
		for i := range e.rules {
			if e.rules[i].Reads().Triggered(mask, true) {
				runnable = append(runnable, i)
			}
		}
		inferred := e.runRules(runnable, frontier)
		inferred.Normalize()

		next := store.New(slots)
		inferred.ForEachTable(func(pidx int, t *store.Table) bool {
			mt := e.Main.Table(pidx)
			if mt == nil || mt.Empty() {
				return true
			}
			pr := t.Pairs()
			for i := 0; i < len(pr); i += 2 {
				if mt.Contains(pr[i], pr[i+1]) && !over.Contains(pidx, pr[i], pr[i+1]) {
					next.Add(pidx, pr[i], pr[i+1])
				}
			}
			return true
		})
		next.Normalize()
		next.ForEachTable(func(pidx int, t *store.Table) bool {
			over.Ensure(pidx).AppendPairs(t.RawPairs())
			return true
		})
		over.Normalize()
		frontier = next
	}
	return over, false
}

// transitiveTables lists the property tables the θ stage keeps
// transitively closed — the tables overdeletion must wipe rather than
// trace: subClassOf/subPropertyOf (unless the hierarchy encoding serves
// them virtually), and for RDFS-Plus owl:sameAs plus every property
// currently declared owl:TransitiveProperty.
func (e *Engine) transitiveTables() []int {
	var out []int
	if e.hier == nil {
		out = append(out, e.V.SubClassOf, e.V.SubPropertyOf)
	}
	if !e.opts.Fragment.UsesSameAs() {
		return out
	}
	out = append(out, e.V.SameAs)
	e.transitiveProps(func(pidx int) { out = append(out, pidx) })
	return out
}

// deleteStored removes the pairs of del from the main store, keeping the
// hierarchy index's rdf:type census in step.
func (e *Engine) deleteStored(del *store.Store) {
	if e.hier != nil {
		if dt := del.Table(e.V.Type); dt != nil && !dt.Empty() {
			e.hier.TypePairsRemoving(e.Main.Table(e.V.Type), dt.Pairs())
		}
	}
	e.Main.Delete(del)
}

// writersOf returns the rules whose write footprint meets a table of s.
func (e *Engine) writersOf(s *store.Store) []int {
	mask := make([]bool, e.Main.NumSlots())
	s.ForEachTable(func(pidx int, _ *store.Table) bool {
		if pidx < len(mask) {
			mask[pidx] = true
		}
		return true
	})
	var out []int
	for i := range e.rules {
		if e.rules[i].Writes().Triggered(mask, true) {
			out = append(out, i)
		}
	}
	return out
}

// neighbourhood returns, as a normalized store, the stored triples the
// rederivation pass of the rules writers needs as its delta: for every
// head anchor of those rules (rules.Anchor) and every overdeleted triple
// matching the anchor's head pattern, the triples of the anchor's body
// table(s) carrying the triple's anchor term at the anchor's position.
// Subject lookups are binary searches over the ⟨s,o⟩ lists; only an
// anchor looked up at a body object reads (and, the first time, builds)
// a table's ⟨o,s⟩ view.
func (e *Engine) neighbourhood(over *store.Store, writers []int) *store.Store {
	nb := store.New(e.Main.NumSlots())
	var vals []uint64
	for _, ri := range writers {
		for _, a := range e.rules[ri].Anchors() {
			vals = vals[:0]
			over.ForEach(func(pidx int, s, o uint64) bool {
				if a.Matches(pidx, s, o) {
					vals = append(vals, a.Value(s, o))
				}
				return true
			})
			if len(vals) == 0 {
				continue
			}
			slices.Sort(vals)
			e.anchorRuns(nb, a, slices.Compact(vals))
		}
	}
	nb.Normalize()
	return nb
}

// bound reports whether table pidx's property can match the anchor's
// variable-predicate body pattern: the anchor's binder table holds the
// property at the binder pattern's position (next to its constant, when
// it has one).
func (e *Engine) bound(a rules.Anchor, pidx int) bool {
	bt := e.Main.Table(a.Binder)
	if bt == nil || bt.Empty() {
		return false
	}
	p := dictionary.PropID(pidx)
	switch {
	case a.BinderConst != 0 && a.BinderObject:
		return bt.Contains(a.BinderConst, p)
	case a.BinderConst != 0:
		return bt.Contains(p, a.BinderConst)
	}
	var lo, hi int
	if a.BinderObject {
		lo, hi = bt.ObjectRun(p)
	} else {
		lo, hi = bt.SubjectRun(p)
	}
	return lo < hi
}

// anchorRuns appends to nb the triples of a's body table(s) whose
// subject (object, for a.Object) is one of vals.
func (e *Engine) anchorRuns(nb *store.Store, a rules.Anchor, vals []uint64) {
	add := func(pidx int, t *store.Table) bool {
		if t == nil || t.Empty() {
			return true
		}
		if a.Binder >= 0 && !e.bound(a, pidx) {
			return true
		}
		pairs := t.Pairs()
		for _, v := range vals {
			if !a.Object {
				if lo, hi := t.SubjectRun(v); lo < hi {
					nb.Ensure(pidx).AppendPairs(pairs[2*lo : 2*hi])
				}
				continue
			}
			os := t.OS()
			lo, hi := t.ObjectRun(v)
			for i := lo; i < hi; i++ {
				nb.Ensure(pidx).Append(os[2*i+1], v)
			}
		}
		return true
	}
	if a.Prop >= 0 {
		add(a.Prop, e.Main.Table(a.Prop))
		return
	}
	e.Main.ForEachTable(add)
}

// reseedAsserted adds to seed the asserted triples among the overdeleted
// ones. While the hierarchy encoding is active, an overdeleted rdf:type
// pair reseeds its subject's whole asserted type run instead: compaction
// may have dropped an asserted ⟨x, D⟩ from the store because a stored
// ⟨x, C⟩ with C below D shadowed it, and once ⟨x, C⟩ is overdeleted only
// this reseed makes ⟨x, D⟩ visible again.
func (e *Engine) reseedAsserted(over, seed *store.Store) {
	over.ForEachTable(func(pidx int, t *store.Table) bool {
		at := e.asserted.Table(pidx)
		if at == nil || at.Empty() {
			return true
		}
		ap, p := at.Pairs(), t.Pairs()
		runs := e.hier != nil && pidx == e.V.Type
		for i := 0; i < len(p); i += 2 {
			switch {
			case runs:
				if i == 0 || p[i] != p[i-2] {
					lo, hi := at.SubjectRun(p[i])
					seed.Ensure(pidx).AppendPairs(ap[2*lo : 2*hi])
				}
			case at.Contains(p[i], p[i+1]):
				seed.Ensure(pidx).Append(p[i], p[i+1])
			}
		}
		return true
	})
}

// A retraction can remove the only asserted triple that put a term on
// the property side (DESIGN.md §1.1): its use as a predicate, a schema
// position, or an owl:sameAs link to a property. A promotion cannot be
// undone in place — the term keeps its property ID and its table, so
// EQ-REP-P keeps copying along its sameAs links — while a
// rematerialization of the surviving triples encodes it as a resource.
// Retract detects that case and rebuilds the engine from its asserted
// record instead. It is a schema-level event; ordinary data deletes
// never reach the full check.

// mayDemote reports whether deleting del can have taken away the reason
// a term is a property: del holds a schema or owl:sameAs triple, an
// rdf:type triple naming a property class, or the last asserted triple
// of its predicate.
func (e *Engine) mayDemote(del *store.Store) bool {
	may := false
	del.ForEachTable(func(pidx int, t *store.Table) bool {
		switch pidx {
		case e.V.SubPropertyOf, e.V.EquivProp, e.V.InverseOf, e.V.Domain, e.V.Range, e.V.SameAs:
			may = true
		case e.V.Type:
			classes, p := e.propertyClasses(), t.Pairs()
			for i := 1; i < len(p) && !may; i += 2 {
				may = classes[p[i]]
			}
		}
		if at := e.asserted.Table(pidx); at == nil || at.Empty() {
			may = true
		}
		return !may
	})
	return may
}

// propertyClasses returns the ids of the classes whose rdf:type makes
// the loader encode the subject as a property.
func (e *Engine) propertyClasses() map[uint64]bool {
	out := map[uint64]bool{}
	for _, term := range []string{rdf.RDFProperty, rdf.RDFSContainerMembershipProperty,
		rdf.OWLFunctionalProperty, rdf.OWLInverseFunctionalProperty,
		rdf.OWLSymmetricProperty, rdf.OWLTransitiveProperty,
		rdf.OWLDatatypeProperty, rdf.OWLObjectProperty} {
		if id, ok := e.Dict.Lookup(term); ok {
			out[id] = true
		}
	}
	return out
}

// unjustifiedProperty reports whether a term of the asserted record has
// a property ID that a one-shot load of the record would not give it:
// it is no predicate, sits in no schema position that makes a property,
// and is linked by no chain of asserted owl:sameAs triples to a term
// that does (or to a pre-registered vocabulary property).
func (e *Engine) unjustifiedProperty() bool {
	vocab := len(rdf.VocabularyProperties)
	props := map[uint64]bool{}
	prop := func(id uint64) bool {
		return props[id] || (dictionary.IsProperty(id) && dictionary.PropIndex(id) < vocab)
	}
	classes := e.propertyClasses()
	var links []uint64
	e.asserted.ForEachTable(func(pidx int, t *store.Table) bool {
		props[dictionary.PropID(pidx)] = true
		p := t.Pairs()
		for i := 0; i < len(p); i += 2 {
			switch s, o := p[i], p[i+1]; {
			case pidx == e.V.SubPropertyOf || pidx == e.V.EquivProp || pidx == e.V.InverseOf:
				props[s], props[o] = true, true
			case pidx == e.V.Domain || pidx == e.V.Range || (pidx == e.V.Type && classes[o]):
				props[s] = true
			case pidx == e.V.SameAs:
				links = append(links, s, o)
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(links); i += 2 {
			if a, b := links[i], links[i+1]; prop(a) != prop(b) {
				props[a], props[b] = true, true
				changed = true
			}
		}
	}
	bad := false
	e.asserted.ForEach(func(_ int, s, o uint64) bool {
		bad = (dictionary.IsProperty(s) && !prop(s)) || (dictionary.IsProperty(o) && !prop(o))
		return !bad
	})
	return bad
}

// rebuild replaces the engine's state by a full materialization of its
// asserted record in a fresh engine, advancing the store's version sum
// past the old one so readers keyed on it see a new generation.
func (e *Engine) rebuild() {
	var batch []rdf.Triple
	e.asserted.ForEach(func(pidx int, s, o uint64) bool {
		batch = append(batch, rdf.Triple{
			S: e.Dict.MustDecode(s),
			P: e.Dict.MustDecode(dictionary.PropID(pidx)),
			O: e.Dict.MustDecode(o),
		})
		return true
	})
	old := e.Main.VersionSum()
	fresh := New(e.opts)
	fresh.LoadTriples(batch)
	fresh.Materialize()
	*e = *fresh
	if sum := e.Main.VersionSum(); sum <= old {
		t := e.Main.Ensure(e.V.Type)
		t.SetVersion(t.Version() + old - sum + 1)
	}
}
