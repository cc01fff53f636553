package inferray

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"inferray/internal/dictionary"
	"inferray/internal/query"
	"inferray/internal/snapshot"
	"inferray/internal/sparql"
)

// Query evaluates a basic graph pattern — a conjunction of triple
// patterns — over the store (run Materialize first to query the
// closure). Pattern terms starting with '?' are variables; anything
// else is an N-Triples surface form. Each solution binds every variable
// name to a surface form.
//
//	rows, err := r.Query(
//	    [3]string{"?prof", "<worksFor>", "?dept"},
//	    [3]string{"?dept", "<subOrganizationOf>", "<Univ0>"},
//	)
func (r *Reasoner) Query(patterns ...[3]string) ([]map[string]string, error) {
	var rows []map[string]string
	err := r.QueryFunc(func(row map[string]string) bool {
		rows = append(rows, row)
		return true
	}, patterns...)
	return rows, err
}

// anonPrefix marks the internal names synthesized for anonymous ("?")
// pattern variables. It starts with a NUL byte, which no "?name" pattern
// term can spell, so an anonymous slot can never collide with — or
// shadow — a real user variable, and the prefix cheaply identifies the
// slots to withhold from result rows.
const anonPrefix = "\x00anon"

// QueryFunc is the streaming form of Query; fn may return false to
// stop. The reasoner's read lock is held for the whole enumeration, so
// fn must not call back into the Reasoner. A bare "?" term is an
// anonymous variable: it matches anything, joins with nothing, and does
// not appear in the delivered rows.
func (r *Reasoner) QueryFunc(fn func(row map[string]string) bool, patterns ...[3]string) error {
	var vars []string
	return r.queryPatterns(patterns, func(v []string) { vars = v }, func(row Row) bool {
		out := make(map[string]string, len(vars))
		for i, name := range vars {
			if strings.HasPrefix(name, anonPrefix) {
				continue
			}
			if term, ok := row.Term(i); ok {
				out[name] = term
			}
		}
		return fn(out)
	})
}

// QueryCount returns the number of solutions without materializing them.
func (r *Reasoner) QueryCount(patterns ...[3]string) (int, error) {
	n := 0
	err := r.queryPatterns(patterns, nil, func(Row) bool {
		n++
		return true
	})
	return n, err
}

// queryPatterns runs a pattern list through the query core as the
// SELECT * of one basic graph pattern, each bare "?" renamed to a
// fresh anonymous variable.
func (r *Reasoner) queryPatterns(patterns [][3]string, onHead func([]string), onRow func(Row) bool) error {
	if len(patterns) == 0 {
		return fmt.Errorf("inferray: empty pattern list")
	}
	start := time.Now()
	g := sparql.Group{Patterns: make([][3]string, len(patterns))}
	text := make([]string, len(patterns))
	anon := 0
	for i, p := range patterns {
		for pos, raw := range p {
			if raw == "?" {
				raw = "?" + anonPrefix + strconv.Itoa(anon)
				anon++
			}
			g.Patterns[i][pos] = raw
		}
		text[i] = p[0] + " " + p[1] + " " + p[2]
	}
	q := &sparql.Query{Form: sparql.FormSelect, Groups: []sparql.Group{g}}
	_, err := r.exec(context.Background(), start, "SELECT * WHERE { "+strings.Join(text, " . ")+" }", q, 0, onHead, onRow)
	return err
}

// SaveSnapshot writes the dictionary and store (closure, after
// Materialize) as a compact binary image — the paper's off-line
// materialization workflow: infer once, persist, serve without the
// engine. It takes the exclusive lock (the store is normalized in
// place), so it waits out concurrent reads and materializations.
func (r *Reasoner) SaveSnapshot(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.engine.Main.Normalize()
	return snapshot.Write(w, r.engine.Dict, r.engine.Main, r.engine.HierView() != nil, r.engine.AssertedStore())
}

// LoadSnapshot restores a reasoner from a snapshot image. The restored
// store is treated as an already-materialized closure (SaveSnapshot is
// documented to persist the closure, and durability images are always
// written post-materialization): it can be queried immediately with no
// inference run, and triples added afterwards extend it incrementally
// on the next Materialize — restoring and extending never re-derives
// the image's own closure. Consequently an image saved before any
// Materialize ran (unusual; SaveSnapshot is meant for closures) stays
// un-inferred: later deltas extend it incrementally without deriving
// the facts the skipped initial run would have produced.
func LoadSnapshot(src io.Reader, opts ...Option) (*Reasoner, error) {
	d, st, encoded, asserted, err := snapshot.Read(src)
	if err != nil {
		return nil, err
	}
	r := New(opts...)
	if err := r.engine.RestoreState(d, st, encoded, asserted); err != nil {
		return nil, err
	}
	r.engine.MarkMaterialized()
	return r, nil
}

// SaveImage writes the closure as a durable image file: the
// SaveSnapshot stream wrapped with metadata (rule fragment, triple
// count, creation time) and a whole-file CRC-32C, written atomically
// (temp file + fsync + rename) — a failed or interrupted save never
// destroys an existing image at path. This is the persistence step of
// the offline-materialize/online-serve workflow; LoadImage restores it.
func (r *Reasoner) SaveImage(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.engine.Main.Normalize()
	return snapshot.WriteFile(path, r.engine.Dict, r.engine.Main, r.engine.AssertedStore(), snapshot.Meta{
		CreatedUnix:      time.Now().Unix(),
		Triples:          uint64(r.engine.StoredSize()),
		Fragment:         r.engine.Fragment().String(),
		HierarchyEncoded: r.engine.HierView() != nil,
		StoreGeneration:  r.gen.Load(),
	})
}

// LoadImage restores a reasoner from an image file written by SaveImage
// (or by a durability checkpoint). The whole-file CRC is verified
// before anything is trusted, and the image's rule fragment must match
// the configured one — a closure is only a closure under its own
// ruleset. Like LoadSnapshot, the restored store is installed as an
// already-materialized closure.
func LoadImage(path string, opts ...Option) (*Reasoner, error) {
	d, st, asserted, meta, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := New(opts...)
	if meta.Fragment != "" && meta.Fragment != r.engine.Fragment().String() {
		return nil, fmt.Errorf("inferray: image %s was materialized under fragment %s, but the reasoner is configured for %s (pass the matching fragment)",
			path, meta.Fragment, r.engine.Fragment())
	}
	if err := r.engine.RestoreState(d, st, meta.HierarchyEncoded, asserted); err != nil {
		return nil, err
	}
	r.engine.MarkMaterialized()
	r.gen.Store(meta.StoreGeneration)
	r.genSum = r.engine.Main.VersionSum()
	return r, nil
}

// Select parses and evaluates a SPARQL SELECT query — the dialect
// documented in docs/SPARQL.md: PREFIX, SELECT (DISTINCT) with a
// projection list (plain variables and aggregates) or *, a basic graph
// pattern (';'/',' lists included) or a UNION of groups, OPTIONAL
// blocks, BIND, inline VALUES, FILTER (comparisons, regex, bound),
// GROUP BY with COUNT/SUM/MIN/MAX/AVG, ORDER BY, LIMIT, and OFFSET —
// against the store (run Materialize first to query the closure). Each
// solution maps the projected variable names to term surface forms;
// variables left unbound by a UNION branch or an unmatched OPTIONAL
// are absent from that row. ASK queries are rejected here; evaluate
// them with Ask.
func (r *Reasoner) Select(queryText string) ([]map[string]string, error) {
	_, rows, err := r.SelectWithVars(queryText)
	return rows, err
}

// SelectWithVars evaluates a SPARQL SELECT like Select and also returns
// the projection — the SELECT list, or for SELECT * every variable in
// order of first appearance in the pattern. Result serializers (the
// HTTP endpoint's results-JSON head, tabular output) need the ordered
// variable list, which the unordered row maps cannot supply.
func (r *Reasoner) SelectWithVars(queryText string) (vars []string, rows []map[string]string, err error) {
	res, err := r.ExecFunc(queryText, 0, nil, func(row map[string]string) bool {
		rows = append(rows, row)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	if res.Ask {
		return nil, nil, fmt.Errorf("inferray: query is an ASK query (use Ask)")
	}
	return res.Vars, rows, nil
}

// Ask parses and evaluates a SPARQL ASK query: whether the WHERE
// clause (with its FILTERs) has at least one solution. Enumeration
// stops at the first match. SELECT queries are rejected here; evaluate
// them with Select.
func (r *Reasoner) Ask(queryText string) (bool, error) {
	res, err := r.Exec(context.Background(), queryText, 0, nil, nil)
	if err != nil {
		return false, err
	}
	if !res.Ask {
		return false, fmt.Errorf("inferray: query is a SELECT query (use Select)")
	}
	return res.Truth, nil
}

// QueryResult is the head of an executed SPARQL query (see Exec):
// which form it was, the ASK answer, and the SELECT projection.
type QueryResult struct {
	// Ask reports that the query was an ASK; Truth is then its answer
	// and Vars is nil.
	Ask   bool
	Truth bool
	// Vars is the SELECT projection in order — the SELECT list, or for
	// SELECT * every variable in order of first appearance.
	Vars []string
	// Generation is the store generation (Reasoner.Generation) the
	// evaluation ran at, captured under the read lock it held — every
	// mutation bumps the generation under the write lock, so the whole
	// result was computed against exactly this generation's closure.
	// That exactness is the query cache's correctness anchor: a result
	// stored under its Generation can never be stale for that key.
	Generation uint64
}

// ExecFunc is Exec with a background context and rows decoded into
// maps: each delivered solution maps the projected variable names to
// term surface forms, and a variable an OPTIONAL block or a UNION
// branch left unbound is absent from its row map.
func (r *Reasoner) ExecFunc(queryText string, maxRows int, onHead func(vars []string), onRow func(row map[string]string) bool) (QueryResult, error) {
	return r.ExecFuncCtx(context.Background(), queryText, maxRows, onHead, onRow)
}

// ExecFuncCtx is ExecFunc with a caller-supplied context (see Exec for
// what the context carries). Rows are decoded into maps here, at this
// wrapper's boundary; the evaluation itself runs on dictionary IDs.
func (r *Reasoner) ExecFuncCtx(ctx context.Context, queryText string, maxRows int, onHead func(vars []string), onRow func(row map[string]string) bool) (QueryResult, error) {
	var vars []string
	head := func(v []string) {
		vars = v
		if onHead != nil {
			onHead(v)
		}
	}
	var deliver func(Row) bool
	if onRow != nil {
		deliver = func(row Row) bool {
			out := make(map[string]string, len(vars))
			for i, name := range vars {
				if term, ok := row.Term(i); ok {
					out[name] = term
				}
			}
			return onRow(out)
		}
	}
	return r.Exec(ctx, queryText, maxRows, head, deliver)
}

// Row is one delivered solution of Exec: the projected cells as
// dictionary IDs, decoded to surface forms only when Term asks. A Row
// is valid only during the onRow call that received it.
type Row struct {
	ids []uint64
	run *queryRun
}

// Term returns the surface form bound to projected column i (the
// index into the head's vars); ok is false when the cell is unbound.
func (row Row) Term(i int) (term string, ok bool) {
	return row.run.terms.decode(row.ids[row.run.project[i]])
}

// Exec is the streaming core under every query entry point (Select,
// SelectWithVars, Ask, ExecFunc, ExecFuncCtx, Query, QueryFunc and
// QueryCount are wrappers over it). It parses queryText (SELECT or
// ASK), plans and evaluates it, and streams SELECT solutions through
// the solution-modifier pipeline (per-group patterns ⋈ VALUES →
// OPTIONAL → BIND → FILTER, then aggregation → ORDER BY → projection →
// DISTINCT → OFFSET → LIMIT). Solutions stay rows of dictionary IDs
// the whole way; a term is decoded only where a FILTER, BIND,
// aggregate or ORDER BY needs its text, or when the caller asks for it
// with Row.Term.
//
// For a SELECT query, onHead (when non-nil) is invoked exactly once
// with the ordered projection before any row, and onRow once per
// delivered solution; onRow may return false to stop early. A query
// with ORDER BY buffers internally before delivery — a bounded
// top-(OFFSET+LIMIT) heap when an effective limit applies and DISTINCT
// is off, a full sort otherwise; aggregate queries buffer their
// groups. Every other query streams. maxRows > 0 caps delivered rows
// on top of the query's own LIMIT (the HTTP endpoint's limit
// parameter) and bounds the ORDER BY heap the same way. For an ASK
// query neither callback runs; the answer is in QueryResult.Truth.
//
// The context carries request-scoped metadata — a request ID installed
// with ContextWithRequestID is stamped into the slow-query record,
// which is how the HTTP server's logs join query text to access-log
// lines — and a best-effort deadline. A cancelable context is checked
// once before evaluation and then every 256 solutions entering the
// modifier tail (after the group's FILTERs, before aggregation, ORDER
// BY and DISTINCT); a tripped deadline or cancellation aborts the
// enumeration and returns the context's error (the HTTP server maps it
// to 504). A query that scans long without producing such rows is only
// interrupted at its next one; contexts without a Done channel
// (context.Background) cost nothing.
//
// The reasoner's read lock is held for the whole evaluation, so the
// callbacks must not call back into the Reasoner. Parse failures are
// returned as *sparql.ParseError values carrying the line and column of
// the offending token.
func (r *Reasoner) Exec(ctx context.Context, queryText string, maxRows int, onHead func(vars []string), onRow func(row Row) bool) (QueryResult, error) {
	start := time.Now()
	q, err := sparql.ParseQuery(queryText)
	if err != nil {
		return QueryResult{}, err
	}
	return r.exec(ctx, start, queryText, q, maxRows, onHead, onRow)
}

// queryRun is one evaluation's state: the variable namespace, the term
// table, the projection, and the row buffers the pipeline reuses.
type queryRun struct {
	r     *Reasoner
	terms termTable
	// varSlots maps every WHERE-clause variable (pattern variables,
	// BIND targets, VALUES variables) to its slot in the WHERE row.
	varSlots map[string]int
	nVars    int
	// project lists, per projected column, its index in the rows the
	// modifier tail carries: WHERE slots, or after aggregation the
	// aggregator's output columns.
	project []int
	// cur is the WHERE row being finished (BIND, FILTER); lookup reads
	// it, so one closure serves the whole evaluation.
	cur    []uint64
	lookup func(name string) (string, bool)
}

// exec is Exec after parsing; start is when the caller began, so the
// recorded duration includes the parse.
func (r *Reasoner) exec(ctx context.Context, start time.Time, queryText string, q *sparql.Query, maxRows int, onHead func(vars []string), onRow func(row Row) bool) (QueryResult, error) {
	run := &queryRun{r: r, varSlots: map[string]int{}}
	// Global variable namespace across UNION branches, in order of
	// first appearance: triple-pattern variables (required and
	// OPTIONAL), BIND targets, and VALUES variables.
	var varNames []string
	slotOf := func(name string) {
		if _, ok := run.varSlots[name]; !ok {
			run.varSlots[name] = len(varNames)
			varNames = append(varNames, name)
		}
	}
	registerPatterns := func(pats [][3]string) {
		for _, pat := range pats {
			for _, t := range pat {
				if strings.HasPrefix(t, "?") {
					slotOf(t[1:])
				}
			}
		}
	}
	for _, g := range q.Groups {
		registerPatterns(g.Patterns)
		for _, o := range g.Optionals {
			registerPatterns(o.Patterns)
		}
		for _, b := range g.Binds {
			slotOf(b.Var)
		}
		for _, v := range g.Values {
			for _, name := range v.Vars {
				slotOf(name)
			}
		}
	}
	if len(varNames) > 64 {
		return QueryResult{}, fmt.Errorf("inferray: more than 64 distinct variables")
	}
	run.nVars = len(varNames)

	aggregating := q.HasAggregates() || len(q.GroupBy) > 0

	res := QueryResult{}
	// outCols names the columns of the rows the modifier tail carries.
	outCols := run.varSlots
	switch {
	case q.Form == sparql.FormAsk:
		res.Ask = true
	case aggregating:
		// The parser already enforced the grouping rules that need only
		// the query text (plain projections covered by GROUP BY, no
		// SELECT *, alias collisions); here the keys and aggregate
		// arguments must additionally resolve to WHERE-clause variables.
		for _, v := range q.GroupBy {
			if _, ok := run.varSlots[v]; !ok {
				return QueryResult{}, fmt.Errorf("inferray: GROUP BY variable ?%s does not appear in the WHERE pattern", v)
			}
		}
		for _, it := range q.Items {
			if it.Agg != nil && !it.Agg.Star {
				if _, ok := run.varSlots[it.Agg.Var]; !ok {
					return QueryResult{}, fmt.Errorf("inferray: aggregate variable ?%s does not appear in the WHERE pattern", it.Agg.Var)
				}
			}
		}
		res.Vars = q.Vars
		// Post-aggregation rows carry only the GROUP BY keys and the
		// projected aggregates, so only those are orderable.
		outCols = aggColumns(q)
		for _, k := range q.OrderBy {
			if _, ok := outCols[k.Var]; !ok {
				return QueryResult{}, fmt.Errorf("inferray: ORDER BY variable ?%s is neither a GROUP BY key nor a projected aggregate", k.Var)
			}
		}
	default:
		if len(q.Vars) > 0 {
			// A projected variable that never occurs in the WHERE clause
			// is almost always a typo; reject it instead of silently
			// emitting rows with the key missing. Variables bound only
			// inside OPTIONAL blocks or single UNION branches do occur —
			// they are merely unbound in some rows.
			for _, v := range q.Vars {
				if _, ok := run.varSlots[v]; !ok {
					return QueryResult{}, fmt.Errorf("inferray: SELECT variable ?%s does not appear in the WHERE pattern", v)
				}
			}
			res.Vars = q.Vars
		} else {
			res.Vars = varNames
		}
		for _, k := range q.OrderBy {
			if _, ok := run.varSlots[k.Var]; !ok {
				return QueryResult{}, fmt.Errorf("inferray: ORDER BY variable ?%s does not appear in the WHERE pattern", k.Var)
			}
		}
	}
	run.project = make([]int, len(res.Vars))
	for i, v := range res.Vars {
		run.project[i] = outCols[v]
	}

	// Effective row cap: the query's LIMIT tightened by the caller's.
	limit := -1
	if q.HasLimit {
		limit = q.Limit
	}
	if maxRows > 0 && (limit < 0 || maxRows < limit) {
		limit = maxRows
	}

	pl := &rowPipeline{
		run:      run,
		distinct: q.Distinct,
		offset:   q.Offset,
		limit:    limit,
		out:      onRow,
	}
	if pl.distinct {
		pl.seen = make(map[string]struct{})
	}

	var ob *orderBuffer
	if len(q.OrderBy) > 0 && !res.Ask {
		// Bounded buffering: with an effective limit, only the
		// OFFSET+LIMIT smallest rows can ever be delivered, so the
		// buffer is a top-k heap. DISTINCT falls back to the full sort —
		// deduplication happens on the projected row after sorting, so
		// a bounded buffer could evict rows that deduplication would
		// have promoted into the window.
		k := -1
		if limit >= 0 && !q.Distinct {
			k = q.Offset + limit
		}
		keys := make([]orderKey, len(q.OrderBy))
		for i, ok := range q.OrderBy {
			keys[i] = orderKey{col: outCols[ok.Var], desc: ok.Desc}
		}
		ob = newOrderBuffer(&run.terms, keys, k)
	}

	var agg *aggregator
	if aggregating && !res.Ask {
		agg = newAggregator(&run.terms, q, run.varSlots)
	}

	// feed delivers one row into the modifiers after aggregation.
	feed := func(row []uint64) bool {
		if ob != nil {
			ob.push(row)
			return true
		}
		return pl.push(row)
	}
	sink := func(row []uint64) bool {
		if res.Ask {
			res.Truth = true
			return false // one witness is enough
		}
		if agg != nil {
			agg.add(row)
			return true // every solution feeds its group
		}
		return feed(row)
	}

	r.mu.RLock()
	defer r.mu.RUnlock()
	run.terms.dict = r.engine.Dict
	// Captured under the read lock: mutations bump the generation under
	// the write lock, so it cannot change for the rest of the evaluation.
	res.Generation = r.gen.Load()

	// Deadline/cancellation polling, armed only for cancelable contexts
	// (Done() is nil for context.Background(), so the library paths pay
	// nothing). The counter check is a mask, not a ticker.
	var ctxErr error
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		inner := sink
		polled := 0
		sink = func(row []uint64) bool {
			polled++
			if polled&255 == 0 {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return false
				}
			}
			return inner(row)
		}
	}

	if onHead != nil && !res.Ask {
		head := res.Vars
		if head == nil {
			head = []string{}
		}
		onHead(head)
	}

	run.cur = make([]uint64, run.nVars)
	run.lookup = func(name string) (string, bool) {
		slot, ok := run.varSlots[name]
		if !ok {
			return "", false
		}
		return run.terms.decode(run.cur[slot])
	}
	for _, g := range q.Groups {
		if !run.evalGroup(g, sink) {
			break
		}
	}

	if ctxErr != nil {
		// Canceled mid-enumeration: the buffered modifiers hold a partial
		// solution set, so flushing them would deliver wrong rows.
		return res, ctxErr
	}
	if agg != nil {
		agg.flush(feed)
	}
	if ob != nil {
		ob.flush(pl.push)
	}
	r.recordQueryLocked(ctx, queryText, q, run.varSlots, pl.sent, time.Since(start))
	return res, nil
}

// evalGroup evaluates one UNION branch in SPARQL's group order: the
// VALUES data joins the required graph pattern first (each combination
// of the blocks' rows seeds one engine run), the OPTIONAL blocks
// left-join the seeded solutions, each row then takes the branch's
// BINDs and FILTERs, and survivors go to sink. Returns false when sink
// stopped the enumeration (later branches must not run).
func (run *queryRun) evalGroup(g sparql.Group, sink func([]uint64) bool) bool {
	required, ok := run.r.encodePatterns(g.Patterns, run.varSlots)
	if !ok {
		return true // unknown constant: branch yields nothing
	}
	// Everything seed-independent is computed once, not per VALUES
	// combination: the encoded OPTIONAL blocks (an unknown constant
	// makes a block dead for every combination), the interned VALUES
	// cells, and the slots the BINDs target.
	enc := groupEncoding{g: g, required: required, requiredVars: varMask(g.Patterns, run.varSlots)}
	for _, og := range g.Optionals {
		pats, ok := run.r.encodePatterns(og.Patterns, run.varSlots)
		if !ok {
			continue // dead OPTIONAL: never matches, its variables stay unbound
		}
		enc.optionals = append(enc.optionals, encodedOptional{patterns: pats, filters: og.Filters, vars: varMask(og.Patterns, run.varSlots)})
	}
	if len(g.Binds) > 0 {
		enc.bindExpr = make(map[string]sparql.Expr, len(g.Binds))
		enc.bindSlots = make([]int, len(g.Binds))
		for i, b := range g.Binds {
			enc.bindExpr[b.Var] = b.Expr
			enc.bindSlots[i] = run.varSlots[b.Var]
		}
	}
	blocks := make([]valuesBlock, len(g.Values))
	for i, vb := range g.Values {
		blocks[i].slots = make([]int, len(vb.Vars))
		for k, name := range vb.Vars {
			blocks[i].slots[k] = run.varSlots[name]
		}
		blocks[i].rows = make([][]uint64, len(vb.Rows))
		for j, vrow := range vb.Rows {
			ids := make([]uint64, len(vrow))
			for k, term := range vrow {
				if term != "" { // "" is UNDEF and stays 0
					ids[k] = run.terms.intern(term)
				}
			}
			blocks[i].rows[j] = ids
		}
	}
	return forEachValuesRow(blocks, 0, make([]uint64, run.nVars), func(vals []uint64) bool {
		return run.evalSeeded(vals, &enc, sink)
	})
}

// groupEncoding is one UNION branch's seed-independent compiled state.
type groupEncoding struct {
	g            sparql.Group
	required     []query.Pattern
	requiredVars uint64 // slots the required patterns mention
	optionals    []encodedOptional
	bindExpr     map[string]sparql.Expr
	bindSlots    []int // target slot of each of g.Binds
}

// encodedOptional is an OPTIONAL block compiled for the engine.
type encodedOptional struct {
	patterns []query.Pattern
	filters  []sparql.Expr
	vars     uint64 // slots the block's patterns mention
}

// valuesBlock is one VALUES block with its cells interned: rows[j][k]
// is the ID of row j's cell for slots[k], 0 for UNDEF.
type valuesBlock struct {
	slots []int
	rows  [][]uint64
}

// varMask returns the slots of the variables the surface patterns
// mention.
func varMask(pats [][3]string, varSlots map[string]int) uint64 {
	var m uint64
	for _, pat := range pats {
		for _, t := range pat {
			if strings.HasPrefix(t, "?") {
				m |= 1 << uint(varSlots[t[1:]])
			}
		}
	}
	return m
}

// encodePatterns translates surface patterns to engine terms; ok is
// false when a constant is not in the dictionary (it can match
// nothing).
func (r *Reasoner) encodePatterns(pats [][3]string, varSlots map[string]int) ([]query.Pattern, bool) {
	out := make([]query.Pattern, len(pats))
	for i, pat := range pats {
		var qp query.Pattern
		for pos, raw := range pat {
			var term query.Term
			if strings.HasPrefix(raw, "?") {
				term = query.Var(varSlots[raw[1:]])
			} else {
				id, ok := r.engine.Dict.Lookup(raw)
				if !ok {
					return nil, false
				}
				term = query.Const(id)
			}
			switch pos {
			case 0:
				qp.S = term
			case 1:
				qp.P = term
			case 2:
				qp.O = term
			}
		}
		out[i] = qp
	}
	return out, true
}

// forEachValuesRow enumerates every cross-block-compatible combination
// of the VALUES blocks' rows (one empty combination when there are no
// blocks) as a WHERE row, 0 marking slots no block binds. UNDEF cells
// bind nothing; a variable two blocks both bind must agree, and since
// VALUES cells are interned, ID equality is term equality. Returns
// false when fn stopped the enumeration.
func forEachValuesRow(blocks []valuesBlock, i int, acc []uint64, fn func([]uint64) bool) bool {
	if i == len(blocks) {
		return fn(acc)
	}
	vb := blocks[i]
	merged := make([]uint64, len(acc))
	for _, vrow := range vb.rows {
		copy(merged, acc)
		compatible := true
		for k, id := range vrow {
			if id == 0 {
				continue // UNDEF
			}
			slot := vb.slots[k]
			if cur := merged[slot]; cur != 0 && cur != id {
				compatible = false
				break
			}
			merged[slot] = id
		}
		if compatible && !forEachValuesRow(blocks, i+1, merged, fn) {
			return false
		}
	}
	return true
}

// evalSeeded runs one VALUES combination: seed the engine with the
// combination's dictionary-known bindings, left-join the live OPTIONAL
// blocks, overlay the VALUES cells absent from the dictionary, and run
// the group tail (BINDs, FILTERs). An absent VALUES term pinning a
// required-pattern variable proves the combination empty; pinning only
// optional patterns kills just those blocks (their variables stay
// unbound); pinning nothing still appears in the output rows.
func (run *queryRun) evalSeeded(vals []uint64, enc *groupEncoding, sink func([]uint64) bool) bool {
	var seed []query.Binding
	var absent uint64 // VALUES slots whose term no stored triple contains
	for slot, id := range vals {
		switch {
		case id == 0:
		case isComputed(id):
			absent |= 1 << uint(slot)
		default:
			seed = append(seed, query.Binding{Slot: slot, ID: id})
		}
	}
	if absent&enc.requiredVars != 0 {
		return true // no stored triple can contain the term
	}

	var opts []query.OptionalGroup
	for i := range enc.optionals {
		eo := &enc.optionals[i]
		if absent&eo.vars != 0 {
			continue // pinned to a term no triple contains
		}
		opt := query.OptionalGroup{Patterns: eo.patterns}
		if len(eo.filters) > 0 {
			opt.Accept = run.optionalFilter(eo.filters, vals, absent, enc.bindExpr)
		}
		opts = append(opts, opt)
	}

	cur := run.cur
	cont := true
	_ = run.r.queryEngine().SolveLeftJoin(enc.required, opts, run.nVars, seed, func(row []uint64, bound uint64) bool {
		for slot := range cur {
			if bound&(1<<uint(slot)) != 0 {
				cur[slot] = row[slot]
			} else {
				cur[slot] = vals[slot] // an absent VALUES term, or 0
			}
		}
		cont = run.finishRow(enc, sink)
		return cont
	})
	return cont
}

// optionalFilter builds an OPTIONAL block's acceptance check: its
// FILTERs over the candidate extension. BIND targets are visible to
// them (SPARQL binds them before a later OPTIONAL), resolved on demand
// over the variables bound at that point of the left join.
func (run *queryRun) optionalFilter(filters []sparql.Expr, vals []uint64, absent uint64, bindExpr map[string]sparql.Expr) func(row []uint64, bound uint64) bool {
	var row []uint64
	var bound uint64
	var inProgress map[string]bool
	var lookup func(string) (string, bool)
	lookup = func(name string) (string, bool) {
		if slot, ok := run.varSlots[name]; ok {
			if bound&(1<<uint(slot)) != 0 {
				return run.terms.decode(row[slot])
			}
			if absent&(1<<uint(slot)) != 0 {
				return run.terms.decode(vals[slot])
			}
		}
		if e, ok := bindExpr[name]; ok && !inProgress[name] {
			if inProgress == nil {
				inProgress = map[string]bool{}
			}
			inProgress[name] = true
			term, okEval := sparql.EvalTerm(e, lookup)
			delete(inProgress, name)
			return term, okEval
		}
		return "", false
	}
	return func(r []uint64, b uint64) bool {
		row, bound = r, b
		for _, f := range filters {
			if !sparql.Eval(f, lookup) {
				return false
			}
		}
		return true
	}
}

// finishRow runs the WHERE row in run.cur through the group's tail:
// BINDs in order (an erroring expression leaves its target unbound;
// a computed term is interned, so it compares by ID like any other)
// and the group's FILTERs (the VALUES data already joined upstream,
// before the OPTIONAL blocks).
func (run *queryRun) finishRow(enc *groupEncoding, sink func([]uint64) bool) bool {
	for i, b := range enc.g.Binds {
		slot := enc.bindSlots[i]
		if run.cur[slot] != 0 {
			continue // defensive: the parser rejects rebinding targets
		}
		if term, ok := sparql.EvalTerm(b.Expr, run.lookup); ok {
			run.cur[slot] = run.terms.intern(term)
		}
	}
	for _, f := range enc.g.Filters {
		if !sparql.Eval(f, run.lookup) {
			return true // constraint failed: keep walking
		}
	}
	return sink(run.cur)
}

// rowPipeline applies the solution modifiers after aggregation and
// ORDER BY: DISTINCT (on the projected columns), OFFSET, and LIMIT, in
// SPARQL's order, and delivers the survivors as Rows. push returns
// false once delivery must stop (limit reached or the consumer
// aborted). Rows are not copied: a delivered Row aliases the pushed
// row, which is valid for the callback only.
type rowPipeline struct {
	run      *queryRun
	distinct bool
	seen     map[string]struct{}
	key      []byte
	offset   int
	limit    int // -1 = unlimited
	sent     int
	skipped  int
	out      func(Row) bool
}

func (pl *rowPipeline) push(row []uint64) bool {
	if pl.limit == 0 {
		return false
	}
	if pl.distinct {
		// The key is the fixed-width tuple of projected IDs (0 for an
		// unbound cell): with computed terms interned, equal tuples are
		// exactly equal projected rows.
		pl.key = pl.key[:0]
		for _, col := range pl.run.project {
			pl.key = binary.LittleEndian.AppendUint64(pl.key, row[col])
		}
		if _, dup := pl.seen[string(pl.key)]; dup {
			return true
		}
		pl.seen[string(pl.key)] = struct{}{}
	}
	if pl.skipped < pl.offset {
		pl.skipped++
		return true
	}
	if pl.out != nil && !pl.out(Row{ids: row, run: pl.run}) {
		return false
	}
	pl.sent++
	return pl.limit < 0 || pl.sent < pl.limit
}

// computedTag marks the IDs a termTable hands out for computed terms
// absent from the dictionary; no dictionary ID has bit 63 set. 0 is
// never an ID of either kind, so rows use it for an unbound cell.
const computedTag = 1 << 63

func isComputed(id uint64) bool { return id&computedTag != 0 }

// termTable is one evaluation's ID ↔ term mapping. Stored IDs decode
// through the dictionary, which is a slice index; computed terms (BIND
// results, aggregate values, VALUES cells) are interned: a term the
// dictionary holds takes its dictionary ID, any other a tagged ID in
// this per-query side table. ID equality is therefore term equality
// for every row the pipeline carries. The table dies with the query,
// so it never grows the reasoner's heap.
type termTable struct {
	dict     *dictionary.Dictionary
	computed []string          // computed[i] is the term of ID computedTag|i
	index    map[string]uint64 // computed term → its tagged ID
}

// decode returns the surface form of id; ok is false for 0 (unbound).
func (t *termTable) decode(id uint64) (string, bool) {
	switch {
	case id == 0:
		return "", false
	case isComputed(id):
		return t.computed[id&^computedTag], true
	}
	return t.dict.Decode(id)
}

// intern returns the ID of a computed term: its dictionary ID when the
// store knows it, otherwise a tagged side-table ID.
func (t *termTable) intern(term string) uint64 {
	if id, ok := t.dict.Lookup(term); ok {
		return id
	}
	if id, ok := t.index[term]; ok {
		return id
	}
	if t.index == nil {
		t.index = map[string]uint64{}
	}
	id := computedTag | uint64(len(t.computed))
	t.computed = append(t.computed, term)
	t.index[term] = id
	return id
}
