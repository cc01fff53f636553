package store

import (
	"runtime"
	"slices"
	"sync"

	"inferray/internal/sorting"
)

// MergeRound performs the per-iteration update of Figure 5 for every
// property that received inferred triples: the inferred table is sorted
// and deduplicated, then merged into main while the pairs not already in
// main are collected into the returned delta store ("new" in Algorithm
// 1). Main's tables remain sorted and duplicate-free, and a built ⟨o,s⟩
// cache absorbs the new pairs instead of being dropped (§4.2), so a
// round costs time in the size of the inferred tables plus one memmove
// of each table's tail, never a re-sort of main.
//
// The second result is the changed-property set: the sorted property
// indexes whose main table actually received fresh pairs this round. It
// is the signal the reasoner's dependency scheduler keys on — a rule
// need not fire next iteration unless its read footprint intersects this
// set.
//
// Each property is independent, so tables are merged in parallel when
// parallel is true (§4.3).
func MergeRound(main, inferred *Store, parallel bool) (*Store, []int) {
	main.Grow(len(inferred.tables))
	delta := New(len(main.tables))

	work := make([]int, 0, len(inferred.tables))
	for pidx, t := range inferred.tables {
		if t != nil && !t.Empty() {
			work = append(work, pidx)
		}
	}

	mergeOne := func(pidx int) {
		inf := sorting.SortPairs(inferred.tables[pidx].RawPairs(), true)
		// Direct field writes are safe here: MergeRound runs only inside a
		// materialization, which excludes engine readers entirely, and the
		// parallel mergeOne goroutines each own a distinct table.
		if fresh := main.Ensure(pidx).merge(inf); len(fresh) > 0 {
			delta.tables[pidx] = &Table{pairs: fresh}
		}
	}

	if parallel && len(work) > 1 {
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for _, pidx := range work {
			wg.Add(1)
			sem <- struct{}{}
			go func(pidx int) {
				defer wg.Done()
				mergeOne(pidx)
				<-sem
			}(pidx)
		}
		wg.Wait()
	} else {
		for _, pidx := range work {
			mergeOne(pidx)
		}
	}

	// work is already sorted (index order), so changed is too.
	changed := make([]int, 0, len(work))
	for _, pidx := range work {
		if delta.tables[pidx] != nil {
			changed = append(changed, pidx)
		}
	}
	return delta, changed
}

// merge adds the sorted, duplicate-free pair list inf to the table and
// returns the pairs of inf that were not present yet ("keep new triples
// & skip duplicates", Figure 5), nil when there are none. The table is
// normalized first; a built ⟨o,s⟩ cache takes the fresh pairs by the
// same merge (the cache fields move under osMu, which is all that table
// readers synchronize on inside OS()).
func (t *Table) merge(inf []uint64) []uint64 {
	t.Normalize()
	merged, fresh := mergeSorted(t.pairs, inf)
	if len(fresh) == 0 {
		return nil
	}
	t.pairs = merged
	t.version++
	t.osMu.Lock()
	if t.osOK {
		t.os, _ = mergeSorted(t.os, sorting.SortPairs(swapped(fresh), false))
	}
	t.osMu.Unlock()
	return fresh
}

// swapped returns a copy of a flat pair list with each pair's two
// halves exchanged (⟨s,o⟩ ↔ ⟨o,s⟩).
func swapped(pairs []uint64) []uint64 {
	out := make([]uint64, len(pairs))
	for i := 0; i < len(pairs); i += 2 {
		out[i], out[i+1] = pairs[i+1], pairs[i]
	}
	return out
}

// mergeSorted merges the sorted, duplicate-free pair list inf into the
// sorted, duplicate-free list main in place: main grows into spare
// capacity (reallocating with append's amortized growth only when it
// has none), and the pairs after each insertion point move back by one
// memmove. It returns the union and the pairs of inf that were not in
// main, in a freshly allocated slice; when inf adds nothing, merged is
// main and fresh is nil. Locating the insertion points gallops from the
// previous one, so a round costs O(|inf| log(|main|/|inf|)) comparisons
// plus the moved tail, not a pass over main.
//
// merged and fresh never share a backing array: merged becomes the main
// table's pairs — which later merges and in-place deletions rewrite —
// while fresh becomes a delta table still scanned by the scheduler after
// this round, so aliasing the two corrupts the delta.
func mergeSorted(main, inf []uint64) (merged, fresh []uint64) {
	var at []int // flat index in main before which each fresh pair goes
	i := 0
	for j := 0; j < len(inf); j += 2 {
		s, o := inf[j], inf[j+1]
		i = gallop(main, i, s, o)
		if i < len(main) && main[i] == s && main[i+1] == o {
			continue
		}
		if fresh == nil {
			fresh = make([]uint64, 0, len(inf)-j)
			at = make([]int, 0, (len(inf)-j)/2)
		}
		fresh = append(fresh, s, o)
		at = append(at, i)
	}
	if len(fresh) == 0 {
		return main, nil
	}
	n := len(main)
	merged = slices.Grow(main, len(fresh))[:n+len(fresh)]
	// Fill from the back: every pair of main at or after at[f] moves up
	// by the number of fresh pairs still to place, fresh[f] included.
	hi, k := n, n+len(fresh)
	for f := len(at) - 1; f >= 0; f-- {
		pos := at[f]
		k -= hi - pos
		copy(merged[k:], merged[pos:hi])
		hi = pos
		k -= 2
		merged[k], merged[k+1] = fresh[2*f], fresh[2*f+1]
	}
	return merged, fresh
}

// gallop returns the first flat index i >= from (even, at most
// len(pairs)) whose pair is not less than ⟨s,o⟩ in a sorted flat pair
// list: an exponential probe from from, then a binary search inside the
// bracketing step. Successive searches for ascending keys therefore cost
// the logarithm of the distance skipped, not of the whole list.
func gallop(pairs []uint64, from int, s, o uint64) int {
	less := func(i int) bool {
		return pairs[i] < s || (pairs[i] == s && pairs[i+1] < o)
	}
	n := len(pairs)
	if from >= n || !less(from) {
		return from
	}
	// Invariant: pairs at lo are less than the key; hi is past it or n.
	lo, step := from, 2
	hi := lo + step
	for hi < n && less(hi) {
		lo = hi
		step *= 2
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	// Binary search in (lo, hi] over pair indices.
	l, h := lo/2+1, hi/2
	for l < h {
		m := int(uint(l+h) >> 1)
		if less(2 * m) {
			l = m + 1
		} else {
			h = m
		}
	}
	return 2 * l
}

// deleteSorted removes every pair of the sorted list del from the sorted
// list pairs in place and returns the shortened list and the number of
// pairs removed; pairs of del absent from the list are ignored. Each
// deleted pair is found by galloping from the previous one and the
// surviving runs between them move down by one memmove each.
func deleteSorted(pairs, del []uint64) ([]uint64, int) {
	w := -1   // write index; -1 until the first removal
	keep := 0 // start of the run not yet moved down
	from := 0 // where the next search starts
	removed := 0
	for d := 0; d < len(del); d += 2 {
		s, o := del[d], del[d+1]
		i := gallop(pairs, from, s, o)
		from = i
		if i >= len(pairs) || pairs[i] != s || pairs[i+1] != o {
			continue
		}
		if w < 0 {
			w = i
		} else {
			w += copy(pairs[w:], pairs[keep:i])
		}
		keep = i + 2
		from = keep
		removed++
	}
	if removed == 0 {
		return pairs, 0
	}
	w += copy(pairs[w:], pairs[keep:])
	return pairs[:w], removed
}

// Union merges every table of src into dst (both normalized afterwards).
// It is a convenience for building stores outside the inference loop.
func Union(dst, src *Store) {
	src.ForEachTable(func(pidx int, t *Table) bool {
		dst.Ensure(pidx).AppendPairs(t.RawPairs())
		return true
	})
	dst.Normalize()
}
