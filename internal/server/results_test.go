package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"inferray"
	"inferray/internal/datagen"
	"inferray/internal/rdf"
)

// sparqlResults is the SPARQL 1.1 Query Results JSON document, for
// tests that decode whole /query bodies.
type sparqlResults struct {
	Head    resultsHead    `json:"head"`
	Results resultsSection `json:"results"`
}

type resultsHead struct {
	Vars []string `json:"vars"`
}

type resultsSection struct {
	Bindings []map[string]binding `json:"bindings"`
}

// binding is one RDF term in results-JSON form. Marshaled through
// encoding/json per row (refResultsDoc), it is also the reference the
// direct encoder must reproduce byte for byte.
type binding struct {
	Type     string `json:"type"` // "uri" | "literal" | "bnode"
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

// refTermBinding converts an N-Triples surface form into results-JSON
// through the binding struct: the reference appendBinding must match.
func refTermBinding(term string) binding {
	switch {
	case rdf.IsIRI(term):
		return binding{Type: "uri", Value: term[1 : len(term)-1]}
	case rdf.IsBlank(term):
		return binding{Type: "bnode", Value: term[2:]}
	case rdf.IsLiteral(term):
		lex, ok := rdf.UnescapeLiteral(term)
		if !ok {
			return binding{Type: "literal", Value: term}
		}
		b := binding{Type: "literal", Value: lex}
		switch suffix := term[refLiteralEnd(term):]; {
		case strings.HasPrefix(suffix, "@"):
			b.Lang = suffix[1:]
		case strings.HasPrefix(suffix, "^^<") && strings.HasSuffix(suffix, ">"):
			b.Datatype = suffix[3 : len(suffix)-1]
		}
		return b
	default:
		return binding{Type: "literal", Value: term}
	}
}

// refLiteralEnd returns the index just past the closing quote of a
// literal surface form (len(term) when unterminated).
func refLiteralEnd(term string) int {
	for i := 1; i < len(term); i++ {
		switch term[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(term)
}

// refResultsDoc encodes a results document with encoding/json: the
// head's vars array, and per row a map from each bound variable to its
// binding ("" marks an unbound cell).
func refResultsDoc(t *testing.T, vars []string, rows [][]string) []byte {
	t.Helper()
	head, err := json.Marshal(vars)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`{"head":{"vars":` + string(head) + `},"results":{"bindings":[`)
	for i, row := range rows {
		m := map[string]binding{}
		for j, term := range row {
			if term != "" {
				m[vars[j]] = refTermBinding(term)
			}
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			doc = append(doc, ',')
		}
		doc = append(doc, enc...)
	}
	return append(doc, "]}}\n"...)
}

// sliceRow is a test row: one surface form per projected column, ""
// for unbound.
type sliceRow []string

func (r sliceRow) Term(i int) (string, bool) { return r[i], r[i] != "" }

// fuzzTerm builds an N-Triples surface term of the given kind around a
// fuzzed body and tag.
func fuzzTerm(kind byte, body, tag string) string {
	switch kind % 7 {
	case 0:
		return "<" + body + ">"
	case 1:
		return "_:" + body
	case 2:
		return `"` + body + `"`
	case 3:
		return `"` + body + `"@` + tag
	case 4:
		return `"` + body + `"^^<` + tag + `>`
	case 5:
		return body // any surface form at all, unterminated literals included
	}
	return "" // unbound
}

// FuzzResultsJSON holds the direct encoder to encoding/json: for any
// two projected variables and any two terms — IRIs with <>&, blank
// nodes, literals with language tags, datatypes, escapes, control
// bytes, invalid UTF-8, U+2028 — the streamed document must equal the
// json.Marshal of the per-row binding maps byte for byte.
func FuzzResultsJSON(f *testing.F) {
	f.Add("x", byte(0), "http://ex.org/a?b=1&c=<2>", "", "y", byte(1), "b0", "")
	f.Add("name", byte(3), `chat\"\\n`, "en-GB", "a", byte(4), "12", "http://www.w3.org/2001/XMLSchema#integer")
	f.Add("v", byte(2), "ctl\x01\x1f\x7f\b\f", "", "w", byte(5), `"unterminated\`, "")
	f.Add("u", byte(2), "bad\xff\xfeutf8 \u2028 \u2029 é", "", "u", byte(6), "", "")
	f.Add("<&>", byte(3), "", "", "\u2028", byte(4), "", "")
	f.Add("p", byte(5), `"a"@`, "", "q", byte(5), `"a"^^<>`, "")
	f.Fuzz(func(t *testing.T, name1 string, kind1 byte, body1, tag1, name2 string, kind2 byte, body2, tag2 string) {
		vars := []string{name1, name2}
		row := []string{fuzzTerm(kind1, body1, tag1), fuzzTerm(kind2, body2, tag2)}
		if name1 == name2 {
			row[1] = row[0] // a repeated projection names one column
		}
		rows := [][]string{row, {row[1], ""}}

		st := &resultStream{}
		st.head(vars)
		for _, r := range rows {
			writeRow(st, sliceRow(r))
		}
		got := st.close()
		if want := refResultsDoc(t, vars, rows); string(got) != string(want) {
			t.Fatalf("vars %q rows %q:\n got %s\nwant %s", vars, rows, got, want)
		}
	})
}

// TestQueryEndpointAllocBudget pins the GET /query handler's heap
// allocations per delivered row on a LUBM closure: rows stay
// dictionary IDs from the engine to the encoder, so a plain BGP scan
// costs almost nothing per row and the buffering modifiers at most a
// key or an arena share per row. The CI bench-smoke job runs this as a
// regression gate.
func TestQueryEndpointAllocBudget(t *testing.T) {
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	var triples []inferray.Triple
	for _, tr := range datagen.LUBM(40_000, 7) {
		triples = append(triples, inferray.Triple{S: tr.S, P: tr.P, O: tr.O})
	}
	r.AddTriples(triples)
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	h := New(r).Handler()
	const lubm = "http://example.org/lubm/"
	for _, c := range []struct {
		name   string
		query  string
		budget float64
	}{
		{"plain-bgp", `SELECT ?x WHERE { ?x a <` + lubm + `Person> }`, 0.1},
		{"distinct", `SELECT DISTINCT ?x WHERE { ?x <` + lubm + `memberOf> ?d }`, 2},
		{"filter", `SELECT ?x ?d WHERE { ?x <` + lubm + `memberOf> ?d FILTER(?d != <` + lubm + `Univ0/Dept0>) }`, 2},
		{"optional", `SELECT ?x ?c WHERE { ?x a <` + lubm + `Person> OPTIONAL { ?x <` + lubm + `takesCourse> ?c } }`, 2},
		{"order-limit", `SELECT ?x ?d WHERE { ?x <` + lubm + `memberOf> ?d } ORDER BY DESC(?d) ?x LIMIT 2000`, 2},
	} {
		req := httptest.NewRequest(http.MethodGet, "/query?query="+url.QueryEscape(c.query), nil)
		req.Header.Set("Cache-Control", "no-cache") // evaluate every time
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body.String())
		}
		var res sparqlResults
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rows := len(res.Results.Bindings)
		if rows < 1000 {
			t.Fatalf("%s: %d rows; the budget needs a large result to be per-row", c.name, rows)
		}
		allocs := testing.AllocsPerRun(5, func() {
			h.ServeHTTP(httptest.NewRecorder(), req)
		})
		perRow := allocs / float64(rows)
		t.Logf("%s: %d rows, %.0f allocs/request, %.3f allocs/row", c.name, rows, allocs, perRow)
		if perRow > c.budget {
			t.Errorf("%s: %.3f allocs/row, budget %.1f", c.name, perRow, c.budget)
		}
	}
}
