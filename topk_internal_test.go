package inferray

import (
	"fmt"
	"math/rand"
	"testing"

	"inferray/internal/dictionary"
)

// Rows in these tests are [v, w, arrival]: v and w are the sort keys,
// interned through a termTable, and arrival (1-based, never decoded)
// identifies the row for tie checks.

// The bounded ORDER BY buffer must retain at most k rows no matter how
// many are pushed — that is the whole point of the top-k heap — and
// deliver exactly what the stable full sort + OFFSET/LIMIT delivered.
func TestTopKBoundedAndEquivalent(t *testing.T) {
	terms := &termTable{dict: dictionary.New()}
	keys := []orderKey{{col: 0}, {col: 1, desc: true}}
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{0, 1, 5, 17} {
		bounded := newOrderBuffer(terms, keys, k)
		full := newOrderBuffer(terms, keys, -1)
		row := make([]uint64, 3)
		for i := 0; i < 2000; i++ {
			row[0] = terms.intern(fmt.Sprintf(`"%03d"`, rng.Intn(40)))
			row[1] = terms.intern(fmt.Sprintf("<t%d>", rng.Intn(3)))
			row[2] = uint64(i + 1)
			bounded.push(row) // the buffer must copy: row is reused
			full.push(row)
			if len(bounded.heap.rows) > k {
				t.Fatalf("k=%d: heap holds %d rows", k, len(bounded.heap.rows))
			}
		}
		var got, want []uint64
		bounded.flush(func(r []uint64) bool { got = append(got, r[2]); return true })
		full.flush(func(r []uint64) bool { want = append(want, r[2]); return true })
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d rows, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: row %d is arrival %d, full sort kept %d", k, i, got[i], want[i])
			}
		}
	}
}

// The full-sort path must keep arrival order among rows whose keys
// tie (the stable sort is what makes it so).
func TestOrderBufferStableTies(t *testing.T) {
	terms := &termTable{dict: dictionary.New()}
	ob := newOrderBuffer(terms, []orderKey{{col: 0}}, -1)
	tie := terms.intern(`"tie"`)
	for i := 0; i < 50; i++ {
		ob.push([]uint64{tie, uint64(i + 1)})
	}
	i := 0
	ob.flush(func(r []uint64) bool {
		if r[1] != uint64(i+1) {
			t.Fatalf("tie order broken at %d: arrival %d", i, r[1])
		}
		i++
		return true
	})
	if i != 50 {
		t.Fatalf("flushed %d rows", i)
	}
}
