package hierarchy

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"inferray/internal/closure"
	"inferray/internal/store"
)

// closurePairs materializes the reference closure of an edge list as a
// sorted, deduplicated flat pair list.
func closurePairs(edges []uint64) []uint64 {
	out := closure.Close(edges)
	type pair struct{ s, o uint64 }
	set := make(map[pair]struct{})
	for i := 0; i < len(out); i += 2 {
		set[pair{out[i], out[i+1]}] = struct{}{}
	}
	flat := make([]pair, 0, len(set))
	for p := range set {
		flat = append(flat, p)
	}
	sort.Slice(flat, func(i, j int) bool {
		if flat[i].s != flat[j].s {
			return flat[i].s < flat[j].s
		}
		return flat[i].o < flat[j].o
	})
	res := make([]uint64, 0, 2*len(flat))
	for _, p := range flat {
		res = append(res, p.s, p.o)
	}
	return res
}

var graphs = map[string][]uint64{
	"chain":     {1, 2, 2, 3, 3, 4, 4, 5},
	"tree":      {10, 1, 11, 1, 12, 10, 13, 10, 14, 11},
	"diamond":   {1, 2, 1, 3, 2, 4, 3, 4, 4, 5},
	"cycle":     {1, 2, 2, 3, 3, 1, 4, 1},
	"self-loop": {1, 1, 2, 1},
	"two-comps": {1, 2, 2, 3, 10, 11},
	"dag-wide":  {1, 5, 2, 5, 3, 5, 4, 5, 5, 6, 5, 7},
	"mutual":    {1, 2, 2, 1, 3, 2, 2, 4},
}

func TestRelationMatchesClosure(t *testing.T) {
	for name, edges := range graphs {
		ref := closurePairs(edges)
		r := newRelation(edges)

		// Full pair enumeration in ⟨s,o⟩ order must equal the closure.
		var got []uint64
		r.ForEachPair(false, func(s, o uint64) bool {
			got = append(got, s, o)
			return true
		})
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: ForEachPair(so) = %v, want %v", name, got, ref)
		}

		// OS-order enumeration: same set, sorted by ⟨o,s⟩.
		var gotOS [][2]uint64
		r.ForEachPair(true, func(s, o uint64) bool {
			gotOS = append(gotOS, [2]uint64{s, o})
			return true
		})
		if !sort.SliceIsSorted(gotOS, func(i, j int) bool {
			if gotOS[i][1] != gotOS[j][1] {
				return gotOS[i][1] < gotOS[j][1]
			}
			return gotOS[i][0] < gotOS[j][0]
		}) {
			t.Errorf("%s: ForEachPair(os) not in ⟨o,s⟩ order: %v", name, gotOS)
		}
		if len(gotOS)*2 != len(ref) {
			t.Errorf("%s: ForEachPair(os) yielded %d pairs, want %d", name, len(gotOS), len(ref)/2)
		}

		if r.VisiblePairs()*2 != len(ref) {
			t.Errorf("%s: VisiblePairs = %d, want %d", name, r.VisiblePairs(), len(ref)/2)
		}

		// Point lookups across the full id square.
		refSet := make(map[[2]uint64]bool)
		for i := 0; i < len(ref); i += 2 {
			refSet[[2]uint64{ref[i], ref[i+1]}] = true
		}
		ids := collectNodes(edges)
		for _, a := range ids {
			for _, b := range ids {
				want := refSet[[2]uint64{a, b}]
				if got := r.Subsumes(a, b); got != want {
					t.Errorf("%s: Subsumes(%d,%d) = %v, want %v", name, a, b, got, want)
				}
			}
		}

		// Supers/Subs enumerations, ascending and complete.
		for _, a := range ids {
			var supers []uint64
			r.Supers(a, func(s uint64) bool { supers = append(supers, s); return true })
			var want []uint64
			for _, b := range ids {
				if refSet[[2]uint64{a, b}] {
					want = append(want, b)
				}
			}
			if !reflect.DeepEqual(supers, want) {
				t.Errorf("%s: Supers(%d) = %v, want %v", name, a, supers, want)
			}
			if got := r.SupersCount(a); got != len(want) {
				t.Errorf("%s: SupersCount(%d) = %d, want %d", name, a, got, len(want))
			}
			if got := r.HasSupers(a); got != (len(want) > 0) {
				t.Errorf("%s: HasSupers(%d) = %v", name, a, got)
			}

			var subs []uint64
			r.Subs(a, func(s uint64) bool { subs = append(subs, s); return true })
			want = nil
			for _, b := range ids {
				if refSet[[2]uint64{b, a}] {
					want = append(want, b)
				}
			}
			if !reflect.DeepEqual(subs, want) {
				t.Errorf("%s: Subs(%d) = %v, want %v", name, a, subs, want)
			}
			if got := r.HasSubs(a); got != (len(want) > 0) {
				t.Errorf("%s: HasSubs(%d) = %v", name, a, got)
			}
		}
	}
}

func TestRelationDeterministic(t *testing.T) {
	edges := graphs["diamond"]
	a := newRelation(edges)
	b := newRelation(edges)
	if !reflect.DeepEqual(a.rankOf, b.rankOf) || !reflect.DeepEqual(a.nodeAt, b.nodeAt) {
		t.Fatal("relation build is not deterministic")
	}
}

func TestRelationEmpty(t *testing.T) {
	r := newRelation(nil)
	if r.Has(1) || r.HasSubs(1) || r.HasSupers(1) || r.Subsumes(1, 2) {
		t.Fatal("empty relation claims membership")
	}
	if r.VisiblePairs() != 0 || r.Nodes() != 0 {
		t.Fatal("empty relation has pairs")
	}
	r.Supers(1, func(uint64) bool { t.Fatal("unexpected super"); return false })
	r.ForEachPair(false, func(uint64, uint64) bool { t.Fatal("unexpected pair"); return false })
}

func TestViewTypeExpansion(t *testing.T) {
	// Class hierarchy: 100 ⊑ 101 ⊑ 102, 103 isolated. Instances typed at
	// the leaves; the view must surface the expanded rdf:type pairs.
	const typePidx, scPidx, spPidx = 0, 1, 2
	st := store.New(3)
	st.Add(scPidx, 100, 101)
	st.Add(scPidx, 101, 102)
	st.Add(typePidx, 7, 100)
	st.Add(typePidx, 8, 101)
	st.Add(typePidx, 9, 103)
	st.Normalize()

	idx := Build(st.Table(scPidx).Pairs(), nil, typePidx, scPidx, spPidx)
	v := &View{St: st, Idx: idx}

	if !v.Contains(typePidx, 7, 102) || !v.Contains(typePidx, 7, 100) {
		t.Fatal("expansion missing")
	}
	if v.Contains(typePidx, 9, 102) || v.Contains(typePidx, 7, 103) {
		t.Fatal("expansion overreaches")
	}

	var objs []uint64
	v.ScanSubject(typePidx, 7, func(o uint64) bool { objs = append(objs, o); return true })
	if !reflect.DeepEqual(objs, []uint64{100, 101, 102}) {
		t.Fatalf("ScanSubject(type,7) = %v", objs)
	}

	var subs []uint64
	v.ScanObject(typePidx, 102, func(s uint64) bool { subs = append(subs, s); return true })
	if !reflect.DeepEqual(subs, []uint64{7, 8}) {
		t.Fatalf("ScanObject(type,102) = %v", subs)
	}

	var all [][2]uint64
	v.ScanAll(typePidx, false, func(s, o uint64) bool {
		all = append(all, [2]uint64{s, o})
		return true
	})
	want := [][2]uint64{{7, 100}, {7, 101}, {7, 102}, {8, 101}, {8, 102}, {9, 103}}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("ScanAll(type,so) = %v, want %v", all, want)
	}

	var allOS [][2]uint64
	v.ScanAll(typePidx, true, func(s, o uint64) bool {
		allOS = append(allOS, [2]uint64{s, o})
		return true
	})
	wantOS := [][2]uint64{{7, 100}, {7, 101}, {8, 101}, {7, 102}, {8, 102}, {9, 103}}
	if !reflect.DeepEqual(allOS, wantOS) {
		t.Fatalf("ScanAll(type,os) = %v, want %v", allOS, wantOS)
	}

	sts := v.Stats(typePidx)
	if sts.Pairs != 6 || sts.Subjects != 3 || sts.Objects != 4 || !sts.ObjectsExact {
		t.Fatalf("Stats(type) = %+v", sts)
	}
	vSC, vSP, vType := v.VirtualCounts()
	// Visible sc pairs: (100,101),(100,102),(101,102) = 3; stored 2.
	if vSC != 1 || vSP != 0 || vType != 3 {
		t.Fatalf("VirtualCounts = %d,%d,%d", vSC, vSP, vType)
	}

	// Early-abort propagation.
	n := 0
	if v.ScanAll(typePidx, false, func(uint64, uint64) bool { n++; return false }) {
		t.Fatal("abort not propagated")
	}
	if n != 1 {
		t.Fatalf("walked %d past abort", n)
	}
}

// TestTypeCensusMaintained checks the incremental rdf:type census
// against a fresh index's full scan across random merges and deletions of
// type pairs over a small diamond-with-cycle class hierarchy.
func TestTypeCensusMaintained(t *testing.T) {
	const typePidx, scPidx, spPidx = 0, 1, 2
	sc := []uint64{100, 101, 100, 102, 101, 103, 102, 103, 104, 105, 105, 104}
	idx := Build(sc, nil, typePidx, scPidx, spPidx)
	st := store.New(3)
	st.Ensure(typePidx)
	idx.typeCounts(st.Table(typePidx)) // take the census while the table is empty
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 400; step++ {
		batch := store.New(3)
		for i := 0; i < 1+rng.Intn(6); i++ {
			batch.Add(typePidx, uint64(rng.Intn(8)), uint64(100+rng.Intn(7)))
		}
		batch.Normalize()
		tt := st.Ensure(typePidx)
		if step%3 == 2 {
			idx.TypePairsRemoving(tt, batch.Table(typePidx).Pairs())
			tt.DeletePairs(batch.Table(typePidx).Pairs())
		} else {
			delta, _ := store.MergeRound(st, batch, false)
			if dt := delta.Table(typePidx); dt != nil {
				idx.TypePairsAdded(tt, dt.Pairs())
			}
		}
		visible, classes := idx.typeCounts(tt)
		wantVisible, wantClasses := Build(sc, nil, typePidx, scPidx, spPidx).typeCounts(tt)
		if visible != wantVisible || classes != wantClasses {
			t.Fatalf("step %d: census (%d, %d), full scan (%d, %d)", step, visible, classes, wantVisible, wantClasses)
		}
	}
}
