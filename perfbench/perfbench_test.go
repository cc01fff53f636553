package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"testing"

	"inferray"
	"inferray/internal/baseline"
	"inferray/internal/reasoner"
	"inferray/internal/rules"
	"inferray/internal/server"
)

// TestDigestMatchesBaseline checks the closure digest bulk-lubm compares
// cycles by against an independent engine: the semi-naive hash-join
// baseline, run on a reduced LUBM input with Inferray's term encoding.
func TestDigestMatchesBaseline(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		ds, err := generate(3000, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := publicCycle(ds.nt)
		if err != nil {
			t.Fatal(err)
		}
		got := digestOf(r)

		e := reasoner.New(reasoner.Options{Fragment: rules.RDFSPlus})
		e.LoadTriples(ds.triples)
		h := baseline.NewHashJoinEngine(rules.Specs(rules.RDFSPlus, e.V))
		for _, tr := range ds.triples {
			s, _ := e.Dict.Lookup(tr.S)
			p, _ := e.Dict.Lookup(tr.P)
			o, _ := e.Dict.Lookup(tr.O)
			h.Add(baseline.Fact{s, p, o})
		}
		h.Materialize()
		var want closureDigest
		for _, f := range h.Store.All() {
			want.add(e.Dict.MustDecode(f[0]), e.Dict.MustDecode(f[1]), e.Dict.MustDecode(f[2]))
		}
		if got != want {
			t.Errorf("seed %d: inferray closure %+v, hash-join baseline %+v", seed, got, want)
		}
	}
}

// TestTemplatesHaveSolutions checks every template kind of both serve
// sequences on the serve workloads' data: each request has solutions,
// and each COUNT counts more than zero.
func TestTemplatesHaveSolutions(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the 200k LUBM closure")
	}
	for _, seed := range []int64{1, 7} {
		ds, err := generate(serveTarget, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.collectPools(); err != nil {
			t.Fatal(err)
		}
		r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
		if err := loadAndMaterialize(r, ds.nt); err != nil {
			t.Fatal(err)
		}
		var reqs []request
		for i := 0; i < 240; i++ {
			reqs = append(reqs, ds.readRequest(seed, i))
		}
		for k := 0; k < hotReads; k++ {
			reqs = append(reqs, ds.hotRead(seed, k))
		}
		for _, req := range reqs {
			n, err := execCount(r, req.query)
			if err != nil || n == 0 {
				t.Fatalf("seed %d %s: %d solutions, %v: %s", seed, req.template, n, err, req.query)
			}
			if req.template != "count" {
				continue
			}
			_, rows, err := r.SelectWithVars(req.query)
			if err != nil {
				t.Fatal(err)
			}
			if c, _ := strconv.Atoi(literalValue(rows[0]["n"])); c == 0 {
				t.Errorf("seed %d: COUNT is %s: %s", seed, rows[0]["n"], req.query)
			}
		}
	}
}

// literalValue returns the lexical form of a typed literal "v"^^<dt>.
func literalValue(term string) string {
	for i := 1; i < len(term); i++ {
		if term[i] == '"' {
			return term[1:i]
		}
	}
	return term
}

// TestSequencesAreStratified checks that the request sequences are a
// function of the seed and hold their mix in every block.
func TestSequencesAreStratified(t *testing.T) {
	ds, err := generate(20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.collectPools(); err != nil {
		t.Fatal(err)
	}
	differs := false
	perTemplate := map[string]int{}
	for block := 0; block < 50; block++ {
		scans := 0
		inserts, deletes := 0, 0
		for pos := 0; pos < readBlock; pos++ {
			i := block*readBlock + pos
			a, b := ds.readRequest(3, i), ds.readRequest(3, i)
			if a != b {
				t.Fatalf("request %d differs between two draws", i)
			}
			if a != ds.readRequest(4, i) {
				differs = true
			}
			if a.template == "scan-person" || a.template == "scan-member" {
				scans++
			}
			perTemplate[a.template]++
			m := ds.mixedRequest(3, i)
			switch {
			case m.insert:
				inserts++
				if m.ordinal != block {
					t.Fatalf("block %d inserts ordinal %d", block, m.ordinal)
				}
			case m.delete:
				deletes++
				if m.ordinal != block-deleteLag {
					t.Fatalf("block %d deletes ordinal %d", block, m.ordinal)
				}
			}
		}
		if scans != 1 {
			t.Fatalf("block %d has %d scans, want 1", block, scans)
		}
		if inserts != 1 || deletes != btoi(block >= deleteLag) {
			t.Fatalf("block %d has %d inserts and %d deletes", block, inserts, deletes)
		}
	}
	if !differs {
		t.Error("seeds 3 and 4 send the same read sequence")
	}
	// 50 blocks hold 950 selective reads: 158 full rounds of the 6
	// templates and 2 more.
	for _, name := range selectiveTemplates {
		if n := perTemplate[name]; n != 158 && n != 159 {
			t.Errorf("template %s sent %d times in 950 selective reads", name, n)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCountSolutions checks the structural row counter against a full
// JSON decode of the server's SELECT and ASK responses.
func TestCountSolutions(t *testing.T) {
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	for _, tr := range [][3]string{
		{"<http://x/a>", "<http://x/p>", `"va,l}u\"e]"`},
		{"<http://x/b>", "<http://x/p>", `"{[\\"`},
		{"<http://x/c>", "<http://x/q>", "<http://x/d>"},
	} {
		if err := r.Add(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	h := server.New(r).Handler()
	for _, q := range []string{
		"SELECT ?s ?o WHERE { ?s <http://x/p> ?o }",
		"SELECT ?s WHERE { ?s <http://x/q> ?o }",
		"SELECT ?s WHERE { ?s <http://x/none> ?o }",
		"ASK { <http://x/a> <http://x/p> ?o }",
		"ASK { <http://x/a> <http://x/q> ?o }",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?query="+url.QueryEscape(q), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", q, rec.Code)
		}
		var doc struct {
			Boolean *bool `json:"boolean"`
			Results struct {
				Bindings []json.RawMessage `json:"bindings"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		want := len(doc.Results.Bindings)
		if doc.Boolean != nil {
			want = btoi(*doc.Boolean)
		}
		got, err := countSolutions(rec.Body.Bytes())
		if err != nil || got != want {
			t.Errorf("%s: counted %d (%v), decoded %d", q, got, err, want)
		}
	}
}

// TestQuantile checks the Harrell–Davis estimate on samples whose
// quantiles are known.
func TestQuantile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 101; i++ {
		xs = append(xs, float64(i))
	}
	if got := quantile(xs, 0.5); math.Abs(got-51) > 1e-6 {
		t.Errorf("median of 1..101 = %v, want 51", got)
	}
	if got := quantile(xs, 0.99); got < 98 || got > 101 {
		t.Errorf("p99 of 1..101 = %v", got)
	}
	if got := quantile(xs, 1); got != 101 {
		t.Errorf("max of 1..101 = %v", got)
	}
	// Half fast, half slow: the median lies between the modes and moves
	// little when one sample changes sides.
	var bi []float64
	for i := 0; i < 200; i++ {
		bi = append(bi, 10+float64(i%7)/10, 40+float64(i%5)/10)
	}
	m1 := quantile(bi, 0.5)
	bi[0] = 50
	if m2 := quantile(bi, 0.5); m1 < 10 || m1 > 41 || math.Abs(m2-m1) > 2 {
		t.Errorf("bimodal median %v, then %v after moving one sample", m1, m2)
	}
}

// TestManifestMatchesMetrics checks that BENCHMARK.json declares the
// metrics the benchmark reports: every end-to-end metric, and every
// per-layer metric plus one trace overhead per end-to-end metric, with
// the same units, in the same order.
func TestManifestMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	wantLayer := append([]metricSpec(nil), perLayer...)
	for _, m := range endToEnd {
		wantLayer = append(wantLayer, metricSpec{overheadMetric(m.name), "%"})
	}
	for _, c := range []struct {
		section string
		got     []struct{ Name, Unit string }
		want    []metricSpec
	}{
		{"end_to_end", manifest.EndToEnd, endToEnd},
		{"per_layer", manifest.PerLayer, wantLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s declares %d metrics, the benchmark reports %d", c.section, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d] is %s in %s, the benchmark reports %s in %s", c.section, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
