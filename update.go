package inferray

import (
	"fmt"
	"strings"
	"time"

	"inferray/internal/query"
	"inferray/internal/rdf"
	"inferray/internal/reasoner"
	"inferray/internal/sparql"
)

// UpdateStats reports what an Update request did.
type UpdateStats struct {
	// Ops is the number of operations executed.
	Ops int
	// Inserted counts the ground triples asserted by INSERT DATA
	// operations (before deduplication against the store).
	Inserted int
	// Deleted counts the asserted triples removed by DELETE DATA and
	// DELETE WHERE operations. Triples that were requested but not
	// asserted — unknown terms, or derivable-only facts — are not
	// counted: deleting a triple the store merely infers is a no-op,
	// exactly as in SPARQL (the fact remains derivable).
	Deleted int
	// EncodingDropped reports that a schema retraction (subClassOf /
	// subPropertyOf) forced the hierarchy interval encoding off for
	// this reasoner; see DESIGN.md §11.
	EncodingDropped bool
}

// Update parses and executes a SPARQL UPDATE request — the forms
// documented in docs/SPARQL.md: INSERT DATA, DELETE DATA, and DELETE
// WHERE, as a ';'-separated sequence executed in order. INSERT DATA
// asserts its triples and materializes incrementally; the DELETE forms
// retract asserted triples and maintain the closure by
// delete-rederive, so after every operation the visible closure equals
// a from-scratch materialization of the surviving asserted triples.
// DELETE WHERE instantiates its pattern block against the visible
// closure and retracts the asserted triples among the matches.
//
// On a durable reasoner every operation is written to the write-ahead
// log before it is applied (DELETE WHERE logs the matched ground
// triples, so replay is deterministic). Parse failures are returned as
// *sparql.ParseError values carrying the line and column of the
// offending token. Operations before a failing one stay applied.
func (r *Reasoner) Update(text string) (UpdateStats, error) {
	u, err := sparql.ParseUpdate(text)
	if err != nil {
		return UpdateStats{}, err
	}
	var st UpdateStats
	for _, op := range u.Ops {
		switch op.Kind {
		case sparql.UpdateInsertData:
			batch, err := groundTriples(op.Triples)
			if err != nil {
				return st, err
			}
			r.AddTriples(batch)
			if _, err := r.materialize(true); err != nil {
				return st, err
			}
			st.Inserted += len(batch)
		case sparql.UpdateDeleteData:
			batch, err := groundTriples(op.Triples)
			if err != nil {
				return st, err
			}
			rs, err := r.deleteBatch(batch)
			if err != nil {
				return st, err
			}
			st.Deleted += rs.Retracted
			st.EncodingDropped = st.EncodingDropped || rs.EncodingDropped
		case sparql.UpdateDeleteWhere:
			rs, err := r.deleteWhere(op.Patterns)
			if err != nil {
				return st, err
			}
			st.Deleted += rs.Retracted
			st.EncodingDropped = st.EncodingDropped || rs.EncodingDropped
		}
		st.Ops++
	}
	return st, nil
}

// groundTriples converts a parsed DATA block into triples, enforcing
// the same term rules as Add.
func groundTriples(triples [][3]string) ([]rdf.Triple, error) {
	out := make([]rdf.Triple, 0, len(triples))
	for _, tr := range triples {
		if !rdf.IsIRI(tr[1]) {
			return nil, fmt.Errorf("inferray: predicate %q is not an IRI", tr[1])
		}
		if rdf.IsLiteral(tr[0]) {
			return nil, fmt.Errorf("inferray: subject %q may not be a literal", tr[0])
		}
		out = append(out, rdf.Triple{S: tr[0], P: tr[1], O: tr[2]})
	}
	return out, nil
}

// deleteBatch retracts a batch of ground triples: staged inserts are
// materialized first (retraction needs a settled closure), then the
// batch is logged and retracted under the write lock.
func (r *Reasoner) deleteBatch(batch []rdf.Triple) (reasoner.RetractStats, error) {
	if _, err := r.materialize(true); err != nil {
		return reasoner.RetractStats{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retractLocked(batch, time.Now())
}

// deleteWhere matches the pattern block against the visible closure
// and retracts the asserted triples among the matches. Matching and
// retraction happen under one write lock, so no concurrent insert can
// slip between them.
func (r *Reasoner) deleteWhere(patterns [][3]string) (reasoner.RetractStats, error) {
	if _, err := r.materialize(true); err != nil {
		return reasoner.RetractStats{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	held := time.Now()
	batch, err := r.matchPatternsLocked(patterns)
	if err != nil || len(batch) == 0 {
		return reasoner.RetractStats{}, err
	}
	return r.retractLocked(batch, held)
}

// retractLocked appends the delete record and retracts (r.mu held for
// writing since held). A WAL write failure leaves the closure untouched.
func (r *Reasoner) retractLocked(batch []rdf.Triple, held time.Time) (reasoner.RetractStats, error) {
	if r.dur != nil && len(batch) > 0 {
		if err := r.dur.AppendDelete(batch); err != nil {
			return reasoner.RetractStats{}, fmt.Errorf("inferray: write-ahead log: %w", err)
		}
	}
	_, st, err := r.applyLocked(WALDelete, batch, held)
	return st, err
}

// matchPatternsLocked evaluates a DELETE WHERE basic graph pattern
// against the visible closure (virtual triples included) and returns
// every instantiated ground triple. r.mu must be held. It cannot go
// through the public query path, which takes the read lock.
func (r *Reasoner) matchPatternsLocked(patterns [][3]string) ([]rdf.Triple, error) {
	varSlots := map[string]int{}
	var varNames []string
	encode := func(raw string) (query.Term, bool) {
		if strings.HasPrefix(raw, "?") {
			name := raw[1:]
			slot, ok := varSlots[name]
			if !ok {
				slot = len(varNames)
				varSlots[name] = slot
				varNames = append(varNames, name)
			}
			return query.Var(slot), true
		}
		id, ok := r.engine.Dict.Lookup(raw)
		return query.Const(id), ok
	}
	qp := make([]query.Pattern, len(patterns))
	for i, pat := range patterns {
		s, okS := encode(pat[0])
		p, okP := encode(pat[1])
		o, okO := encode(pat[2])
		if !okS || !okP || !okO {
			return nil, nil // a constant not in the dictionary matches nothing
		}
		qp[i] = query.Pattern{S: s, P: p, O: o}
	}
	if len(varNames) > 64 {
		return nil, fmt.Errorf("inferray: more than 64 distinct variables")
	}
	eng := r.queryEngine()
	var out []rdf.Triple
	err := eng.Solve(qp, len(varNames), func(row []uint64) bool {
		for _, pat := range patterns {
			var tr rdf.Triple
			for pos, raw := range pat {
				term := raw
				if strings.HasPrefix(raw, "?") {
					term = r.engine.Dict.MustDecode(row[varSlots[raw[1:]]])
				}
				switch pos {
				case 0:
					tr.S = term
				case 1:
					tr.P = term
				case 2:
					tr.O = term
				}
			}
			out = append(out, tr)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
