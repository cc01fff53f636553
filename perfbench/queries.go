package main

import (
	"fmt"
)

// request is one operation of a serve workload's sequence.
type request struct {
	template string
	query    string // SPARQL query text; empty for writes
	update   string // SPARQL update text; empty for reads
	// ordinal numbers the run's inserts; a delete carries the ordinal
	// of the insert it removes.
	ordinal int
	insert  bool
	delete  bool
}

// The selective read templates. Each takes its constants from a pool of
// IRIs the generator emitted (see dataset), so none of them is empty on
// the seed's data.
var selectiveTemplates = []string{"type-member", "advisor", "takes-course", "count", "ask", "order-limit"}

// selective instantiates template t with constants drawn by h.
func (d *dataset) selective(t int, h uint64) request {
	pick := func(pool []string) string { return pool[h%uint64(len(pool))] }
	name := selectiveTemplates[t]
	var q string
	switch name {
	case "type-member":
		q = fmt.Sprintf("SELECT ?x WHERE { ?x a %s ; %s %s }", term("Person"), term("memberOf"), pick(d.depts))
	case "advisor":
		q = fmt.Sprintf("SELECT ?s ?d WHERE { ?s %s %s ; %s ?d }", term("advisor"), pick(d.advisors), term("memberOf"))
	case "takes-course":
		q = fmt.Sprintf("SELECT ?s ?p WHERE { ?s %s %s ; %s ?p }", term("takesCourse"), pick(d.courses), term("advisor"))
	case "count":
		q = fmt.Sprintf("SELECT (COUNT(?c) AS ?n) WHERE { ?s %s %s ; %s ?c }", term("memberOf"), pick(d.depts), term("takesCourse"))
	case "ask":
		m := d.members[h%uint64(len(d.members))]
		q = fmt.Sprintf("ASK { %s %s ?d . ?d %s %s }", m.student, term("memberOf"), term("subOrganizationOf"), m.univ)
	case "order-limit":
		q = fmt.Sprintf("SELECT ?s ?c WHERE { ?s %s %s ; %s ?c } ORDER BY DESC(?c) LIMIT 10", term("memberOf"), pick(d.depts), term("takesCourse"))
	}
	return request{template: name, query: q}
}

// scan is a large read: every Person, or every memberOf pair, ≈20k–28k
// rows. The LIMIT drawn per request makes each scan its own cache key,
// so scans are evaluated and encoded like the selective reads instead
// of being answered from the cache after their first occurrence.
func (d *dataset) scan(kind uint64, h uint64) request {
	limit := 20000 + h%8000
	if kind%2 == 0 {
		return request{template: "scan-person", query: fmt.Sprintf("SELECT ?x WHERE { ?x a %s } LIMIT %d", term("Person"), limit)}
	}
	return request{template: "scan-member", query: fmt.Sprintf("SELECT ?x ?d WHERE { ?x %s ?d } LIMIT %d", term("memberOf"), limit)}
}

// readBlock is the stratum of the serve-read sequence: every block of 20
// requests opens with one scan (5%) followed by 19 selective reads, and
// every 6 consecutive selective reads use each template once in a
// seeded order, so any prefix of the sequence has the same mix, and the
// same spacing of scans, up to one block.
const readBlock = 20

// readRequest is request i of the serve-read sequence for seed.
func (d *dataset) readRequest(seed int64, i int) request {
	block, pos := i/readBlock, i%readBlock
	h := mix(seed, 2, uint64(i))
	if pos == 0 {
		return d.scan(uint64(block), h)
	}
	sel := block*(readBlock-1) + pos - 1
	n := len(selectiveTemplates)
	return d.selective(permute(seed, 3, uint64(sel/n), n, sel%n), h)
}

// The serve-mixed sequence: blocks of 20 requests with one INSERT DATA
// of a fresh student into a real department at position 0, one DELETE
// DATA of the student inserted deleteLag blocks earlier at position 10,
// and 18 reads from a hot set of hotReads queries (it fits the
// 1024-entry cache). The deletes keep the closure at base size however
// long the run; the fixed positions space the writes evenly, so how
// often a write queues behind another is the same for every seed.
const (
	mixedBlock = 20
	hotReads   = 10
	deleteLag  = 2
)

func (d *dataset) hotRead(seed int64, k int) request {
	return d.selective(k%len(selectiveTemplates), mix(seed, 4, uint64(k)))
}

// inserted is the triple insert number k adds.
func (d *dataset) inserted(seed int64, k int) [3]string {
	dept := d.depts[mix(seed, 8, uint64(k))%uint64(len(d.depts))]
	return [3]string{term(fmt.Sprintf("BenchStudent%d", k)), term("memberOf"), dept}
}

func (d *dataset) insertText(seed int64, k int) string {
	t := d.inserted(seed, k)
	return fmt.Sprintf("INSERT DATA { %s %s %s . }", t[0], t[1], t[2])
}

func (d *dataset) deleteText(seed int64, k int) string {
	t := d.inserted(seed, k)
	return fmt.Sprintf("DELETE DATA { %s %s %s . }", t[0], t[1], t[2])
}

// mixedRequest is request i of the serve-mixed sequence for seed.
func (d *dataset) mixedRequest(seed int64, i int) request {
	block, pos := i/mixedBlock, i%mixedBlock
	switch {
	case pos == 0:
		return request{template: "insert", ordinal: block, insert: true, update: d.insertText(seed, block)}
	case pos == mixedBlock/2 && block >= deleteLag:
		k := block - deleteLag
		return request{template: "delete", ordinal: k, delete: true, update: d.deleteText(seed, k)}
	}
	return d.hotRead(seed, int(mix(seed, 7, uint64(i))%hotReads))
}
