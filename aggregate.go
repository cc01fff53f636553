package inferray

// The GROUP BY aggregation stage of the SPARQL pipeline: a buffered
// stage between the per-group WHERE evaluation and the solution
// modifiers. Solutions are bucketed by the fixed-width tuple of their
// GROUP BY IDs (one implicit group when the clause is absent but the
// projection aggregates), each bucket drives one sparql.AggState per
// aggregate item, and flush emits one row per group — the GROUP BY
// bindings plus the interned aggregate outputs — into the rest of the
// pipeline (ORDER BY, DISTINCT, OFFSET/LIMIT).

import (
	"encoding/binary"

	"inferray/internal/sparql"
)

// aggregator buckets WHERE rows and accumulates the projected
// aggregates per bucket. Its output rows are laid out by aggColumns.
type aggregator struct {
	terms    *termTable
	keySlots []int // WHERE slot of each GROUP BY key
	items    []sparql.SelectItem
	argSlots []int // WHERE slot of each item's aggregate argument (-1: none)
	implicit bool  // no GROUP BY: one group even over zero solutions
	index    map[string]int
	groups   []aggGroup // first-seen order, for deterministic output
	key      []byte
	arena    rowArena
}

// aggGroup is one GROUP BY bucket.
type aggGroup struct {
	keys   []uint64 // the group's GROUP BY IDs (0 = unbound)
	states []*sparql.AggState
}

// aggColumns lays out the aggregator's output rows: the GROUP BY keys
// first, then the aggregate items in projection order.
func aggColumns(q *sparql.Query) map[string]int {
	cols := make(map[string]int, len(q.GroupBy)+len(q.Items))
	for i, v := range q.GroupBy {
		if _, ok := cols[v]; !ok {
			cols[v] = i
		}
	}
	n := len(q.GroupBy)
	for _, it := range q.Items {
		if it.Agg == nil {
			continue
		}
		if _, ok := cols[it.Name]; !ok {
			cols[it.Name] = n
		}
		n++
	}
	return cols
}

func newAggregator(terms *termTable, q *sparql.Query, varSlots map[string]int) *aggregator {
	a := &aggregator{
		terms:    terms,
		keySlots: make([]int, len(q.GroupBy)),
		items:    q.Items,
		argSlots: make([]int, len(q.Items)),
		implicit: len(q.GroupBy) == 0,
		index:    map[string]int{},
	}
	for i, v := range q.GroupBy {
		a.keySlots[i] = varSlots[v]
	}
	for i, it := range q.Items {
		a.argSlots[i] = -1
		if it.Agg != nil && !it.Agg.Star {
			a.argSlots[i] = varSlots[it.Agg.Var]
		}
	}
	return a
}

// add feeds one WHERE row into its group.
func (a *aggregator) add(row []uint64) {
	a.key = a.key[:0]
	for _, slot := range a.keySlots {
		a.key = binary.LittleEndian.AppendUint64(a.key, row[slot])
	}
	gi, ok := a.index[string(a.key)]
	if !ok {
		gi = a.newGroup(row)
		a.index[string(a.key)] = gi
	}
	grp := &a.groups[gi]
	for i, it := range a.items {
		switch {
		case it.Agg == nil:
		case it.Agg.Star:
			grp.states[i].Observe("", true)
		default:
			term, bound := a.terms.decode(row[a.argSlots[i]])
			grp.states[i].Observe(term, bound)
		}
	}
}

// newGroup opens the bucket of row's GROUP BY key (row nil: the empty
// implicit group) and returns its index.
func (a *aggregator) newGroup(row []uint64) int {
	grp := aggGroup{
		keys:   a.arena.alloc(len(a.keySlots)),
		states: make([]*sparql.AggState, len(a.items)),
	}
	if row != nil {
		for i, slot := range a.keySlots {
			grp.keys[i] = row[slot]
		}
	}
	for i, it := range a.items {
		if it.Agg != nil {
			grp.states[i] = sparql.NewAggState(it.Agg)
		}
	}
	a.groups = append(a.groups, grp)
	return len(a.groups) - 1
}

// flush emits one row per group in first-seen order: the group's
// GROUP BY IDs plus every aggregate's interned output (unbound
// aggregate cells — MIN/MAX over nothing, SUM/AVG over a non-numeric —
// are 0). With no GROUP BY and zero solutions the single implicit
// group still emits (COUNT is then 0), per SPARQL. emit may return
// false to stop.
func (a *aggregator) flush(emit func([]uint64) bool) {
	if len(a.groups) == 0 && a.implicit {
		a.newGroup(nil)
	}
	out := make([]uint64, len(a.keySlots), len(a.keySlots)+len(a.items))
	for _, grp := range a.groups {
		out = out[:len(a.keySlots)]
		copy(out, grp.keys)
		for i, it := range a.items {
			if it.Agg == nil {
				continue
			}
			var id uint64
			if term, ok := grp.states[i].Result(); ok {
				id = a.terms.intern(term)
			}
			out = append(out, id)
		}
		if !emit(out) {
			return
		}
	}
}
