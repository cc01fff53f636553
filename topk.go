package inferray

// ORDER BY buffering. A query with ORDER BY cannot stream, but it does
// not always have to buffer the whole solution set either: with an
// effective limit only the OFFSET+LIMIT smallest rows under the sort
// order can ever be delivered, so the buffer is a bounded binary heap
// of exactly that many rows. Ties beyond the sort keys break on
// arrival order — the unbounded buffer through a stable sort, the heap
// through explicit sequence numbers — so both modes deliver
// byte-for-byte what a stable full sort followed by OFFSET/LIMIT
// delivers. Buffered rows are ID rows copied into a chunked arena; a
// key is decoded only when two rows' IDs for it differ.

import (
	"sort"

	"inferray/internal/sparql"
)

// orderKey is one ORDER BY key resolved to a row column.
type orderKey struct {
	col  int
	desc bool
}

// orderBuffer collects rows for ORDER BY: a top-k heap when k ≥ 0, a
// plain slice (stable full sort at flush) when k < 0.
type orderBuffer struct {
	terms *termTable
	keys  []orderKey
	heap  *topK
	rows  [][]uint64 // full-sort mode; slice order = arrival order
	arena rowArena
	seq   int
}

func newOrderBuffer(terms *termTable, keys []orderKey, k int) *orderBuffer {
	ob := &orderBuffer{terms: terms, keys: keys}
	if k >= 0 {
		ob.heap = &topK{k: k, less: ob.seqLess}
	}
	return ob
}

// keyCompare orders two rows by the ORDER BY keys alone (unbound cells
// sort before any bound term, see sparql.CompareTerms). Equal IDs are
// equal terms, so only differing cells are decoded.
func (ob *orderBuffer) keyCompare(a, b []uint64) int {
	for _, k := range ob.keys {
		x, y := a[k.col], b[k.col]
		if x == y {
			continue
		}
		tx, _ := ob.terms.decode(x)
		ty, _ := ob.terms.decode(y)
		c := sparql.CompareTerms(tx, ty)
		if k.desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// seqLess is keyCompare with arrival order as the final tiebreak — the
// heap's strict total order.
func (ob *orderBuffer) seqLess(a, b *seqRow) bool {
	if c := ob.keyCompare(a.row, b.row); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// push buffers a copy of row (the caller reuses its row buffer).
func (ob *orderBuffer) push(row []uint64) {
	if ob.heap != nil {
		ob.heap.push(row, ob.seq, &ob.arena)
		ob.seq++
		return
	}
	ob.rows = append(ob.rows, ob.arena.copy(row))
}

// flush delivers the buffered rows in sort order; emit may return
// false to stop early.
func (ob *orderBuffer) flush(emit func([]uint64) bool) {
	if ob.heap == nil {
		sort.SliceStable(ob.rows, func(i, j int) bool {
			return ob.keyCompare(ob.rows[i], ob.rows[j]) < 0
		})
		for _, row := range ob.rows {
			if !emit(row) {
				return
			}
		}
		return
	}
	rows := ob.heap.rows
	sort.Slice(rows, func(i, j int) bool { return ob.seqLess(&rows[i], &rows[j]) })
	for i := range rows {
		if !emit(rows[i].row) {
			return
		}
	}
}

// seqRow is one heap-buffered solution with its arrival rank.
type seqRow struct {
	row []uint64
	seq int
}

// topK keeps the k smallest rows seen so far under less, as a max-heap
// rooted at the largest kept row: a new row either overwrites the root
// in place or is dropped, so at most k rows are ever retained and a
// full heap allocates nothing.
type topK struct {
	k    int
	less func(a, b *seqRow) bool
	rows []seqRow
	cand seqRow // the row being pushed; a field, so comparing it allocates nothing
}

func (h *topK) push(row []uint64, seq int, arena *rowArena) {
	if h.k == 0 {
		return
	}
	if len(h.rows) < h.k {
		h.rows = append(h.rows, seqRow{row: arena.copy(row), seq: seq})
		h.up(len(h.rows) - 1)
		return
	}
	h.cand = seqRow{row: row, seq: seq}
	if h.less(&h.cand, &h.rows[0]) {
		copy(h.rows[0].row, row)
		h.rows[0].seq = seq
		h.down(0)
	}
}

func (h *topK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(&h.rows[parent], &h.rows[i]) {
			return
		}
		h.rows[parent], h.rows[i] = h.rows[i], h.rows[parent]
		i = parent
	}
}

func (h *topK) down(i int) {
	n := len(h.rows)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && h.less(&h.rows[l], &h.rows[r]) {
			big = r
		}
		if !h.less(&h.rows[i], &h.rows[big]) {
			return
		}
		h.rows[i], h.rows[big] = h.rows[big], h.rows[i]
		i = big
	}
}

// arenaChunk is the rowArena's allocation unit in IDs.
const arenaChunk = 4096

// rowArena hands out fixed-width ID rows carved from shared chunks, so
// buffering a row costs no allocation of its own. Chunks are never
// reallocated, so a handed-out row stays valid.
type rowArena struct {
	free []uint64
}

// alloc returns a zeroed row of n IDs.
func (a *rowArena) alloc(n int) []uint64 {
	if len(a.free) < n {
		a.free = make([]uint64, max(arenaChunk, n))
	}
	row := a.free[:n:n]
	a.free = a.free[n:]
	return row
}

// copy returns an arena-backed copy of row.
func (a *rowArena) copy(row []uint64) []uint64 {
	out := a.alloc(len(row))
	copy(out, row)
	return out
}
