package store

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"inferray/internal/sorting"
)

// TestMergeRoundDeltaNotAliased is the regression test for a merge into
// an empty main table: the round's delta table must own
// its storage, so that later in-place mutations of the main table
// (appends into spare capacity, in-place normalization) cannot corrupt
// delta pairs still being read by the scheduler.
func TestMergeRoundDeltaNotAliased(t *testing.T) {
	main := New(1)
	inferred := New(1)
	// The duplicate pair makes the merge-round sort trim its result,
	// leaving spare capacity in the sorted slice — the precondition for
	// the old aliasing: main's table and the delta shared that array.
	inferred.Ensure(0).AppendPairs([]uint64{5, 50, 1, 10, 1, 10, 3, 30})

	delta, changed := MergeRound(main, inferred, false)
	if !reflect.DeepEqual(changed, []int{0}) {
		t.Fatalf("changed = %v, want [0]", changed)
	}
	want := []uint64{1, 10, 3, 30, 5, 50}
	dt := delta.Table(0)
	if dt == nil || !reflect.DeepEqual(dt.RawPairs(), want) {
		t.Fatalf("delta pairs = %v, want %v", dt.RawPairs(), want)
	}

	// Mutate main after the round the way a later iteration does: append
	// (fills shared spare capacity) and normalize (sorts in place).
	mt := main.Table(0)
	mt.AppendPairs([]uint64{0, 7})
	mt.Normalize()

	if !reflect.DeepEqual(dt.RawPairs(), want) {
		t.Fatalf("delta corrupted by main mutation: %v, want %v", dt.RawPairs(), want)
	}
}

// TestMergeRoundMergedPathNotAliased covers the general merge path too:
// a round over a non-empty main must also leave delta independent.
func TestMergeRoundMergedPathNotAliased(t *testing.T) {
	main := New(1)
	main.Ensure(0).AppendPairs([]uint64{2, 20})
	main.Normalize()
	inferred := New(1)
	inferred.Ensure(0).AppendPairs([]uint64{1, 10, 3, 30})

	delta, _ := MergeRound(main, inferred, false)
	want := []uint64{1, 10, 3, 30}
	dt := delta.Table(0)
	if dt == nil || !reflect.DeepEqual(dt.RawPairs(), want) {
		t.Fatalf("delta pairs = %v, want %v", dt.RawPairs(), want)
	}

	mt := main.Table(0)
	mt.AppendPairs([]uint64{0, 7})
	mt.Normalize()

	if !reflect.DeepEqual(dt.RawPairs(), want) {
		t.Fatalf("delta corrupted by main mutation: %v, want %v", dt.RawPairs(), want)
	}
}

// TestDropOSCacheConcurrentWithReaders hammers DropOSCache against
// concurrent OS()/ObjectRun readers; it fails under -race when the drop
// writes the cache fields without taking osMu (the WithLowMemory /
// concurrent-server race).
func TestDropOSCacheConcurrentWithReaders(t *testing.T) {
	tab := &Table{}
	for i := uint64(0); i < 256; i++ {
		tab.Append(i, 1000-i)
	}
	tab.Normalize()

	const iters = 500
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				os := tab.OS()
				if len(os) != 512 {
					t.Errorf("OS length %d, want 512", len(os))
					return
				}
				lo, hi := tab.ObjectRun(1000)
				if hi-lo != 1 {
					t.Errorf("ObjectRun(1000) = [%d,%d), want one pair", lo, hi)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			tab.DropOSCache()
		}
	}()
	wg.Wait()
}

// TestMergeAndDeleteMaintainOSCache drives random merge rounds and
// deletions through one table whose ⟨o,s⟩ cache is built: after every
// step the primary list must equal a map oracle in sorted order and the
// cached view must equal one rebuilt from scratch. It covers the
// in-place galloping merge (insertions at the front, the back and
// between long runs) and the in-place deletion.
func TestMergeAndDeleteMaintainOSCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	main := New(1)
	oracle := map[[2]uint64]bool{}
	check := func(step int) {
		t.Helper()
		tab := main.Table(0)
		p := tab.Pairs()
		if tab.Size() != len(oracle) || !sorting.IsSortedPairs(p) {
			t.Fatalf("step %d: %d pairs (sorted %v), oracle %d", step, tab.Size(), sorting.IsSortedPairs(p), len(oracle))
		}
		for i := 0; i < len(p); i += 2 {
			if !oracle[[2]uint64{p[i], p[i+1]}] {
				t.Fatalf("step %d: stray pair (%d,%d)", step, p[i], p[i+1])
			}
		}
		want := sorting.SortPairs(swapped(p), false)
		if got := tab.OS(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: OS cache diverged from a rebuild", step)
		}
	}
	for step := 0; step < 300; step++ {
		span := uint64(1 + rng.Intn(400))
		if step%3 == 2 && len(oracle) > 0 {
			var del Table
			for i := 0; i < 1+rng.Intn(40); i++ {
				s, o := uint64(rng.Int63n(int64(span))), uint64(rng.Intn(50))
				del.Append(s, o)
				delete(oracle, [2]uint64{s, o})
			}
			del.Normalize()
			main.Table(0).DeletePairs(del.Pairs())
		} else {
			inferred := New(1)
			n := 1 + rng.Intn(60)
			if step%10 == 0 {
				n = 500
			}
			for i := 0; i < n; i++ {
				s, o := uint64(rng.Int63n(int64(span))), uint64(rng.Intn(50))
				inferred.Add(0, s, o)
				oracle[[2]uint64{s, o}] = true
			}
			MergeRound(main, inferred, false)
		}
		check(step)
	}
}

func TestGallop(t *testing.T) {
	pairs := []uint64{1, 1, 1, 5, 2, 0, 4, 4, 4, 9, 7, 1}
	for _, c := range []struct {
		from int
		s, o uint64
		want int
	}{
		{0, 0, 0, 0}, {0, 1, 5, 2}, {0, 1, 6, 4}, {2, 4, 5, 8},
		{0, 7, 1, 10}, {0, 7, 2, 12}, {12, 0, 0, 12}, {6, 1, 1, 6},
	} {
		if got := gallop(pairs, c.from, c.s, c.o); got != c.want {
			t.Errorf("gallop(from %d, %d,%d) = %d, want %d", c.from, c.s, c.o, got, c.want)
		}
	}
}
