package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"inferray"
	"inferray/internal/server"
	"inferray/internal/sparql"
)

// replayRequests is how many requests of a traced serve-read pass are
// replayed in-process, layer by layer.
const replayRequests = 1000

// runServeRead is serve-read: a closed loop of two keep-alive clients
// sending GET /query to an in-process server over a 200k LUBM closure
// that receives no writes. The sequence (see readRequest) has far more
// distinct keys than the cache's 1024 entries, so most reads are
// evaluated: query planning and joins, the row pipeline and the
// SPARQL-JSON encoder are the whole cost. After the timed phase the
// closure is saved as an image and the benchmark restarts from it.
func runServeRead(cfg runConfig, tr *tracer) (*outcome, error) {
	o := newOutcome()
	ds, sv, err := setupServeRead(cfg, tr, o)
	if err != nil {
		return nil, err
	}
	defer sv.stop()

	samples, elapsed := readLoop(sv.base, ds, cfg, tr)
	ok := 0
	for _, s := range samples {
		o.attempted++
		if s.ok {
			ok++
		} else {
			o.failed++
		}
	}
	if ok == 0 {
		return nil, errIncomplete
	}
	all := latencies(samples, cfg.seconds, func(sample) bool { return true })
	opMetrics(o, all, ok, elapsed)
	fmt.Fprintf(os.Stderr, "perfbench: serve-read: %d reads; p95 %.3f ms\n", len(all), quantile(all, 0.95))

	t0 := time.Now()
	want := verifyReads(sv.r, ds, cfg.seed, samples, o)
	fmt.Fprintf(os.Stderr, "perfbench: serve-read: checked %d responses against %d in-process evaluations in %.1fs\n",
		len(samples), len(want), time.Since(t0).Seconds())

	// The restarts run with the server and its cache gone, so that they
	// share the heap with the saved reasoner alone.
	image, err := saveImage(sv.r, cfg.tmp, tr, o)
	if err != nil {
		return nil, err
	}
	saved := digestOf(sv.r)
	if err := sv.stop(); err != nil {
		return nil, err
	}
	if err := imageRestarts(image, saved, o); err != nil {
		return nil, err
	}

	if tr != nil {
		texts := make([]string, len(samples))
		for i, s := range samples {
			texts[i] = ds.readRequest(cfg.seed, s.idx).query
		}
		if err := queryLayers(sv.r, samples, texts, tr, o); err != nil {
			return nil, err
		}
		readBlockLayers(samples, o)
	}
	return o, nil
}

// setupServeRead generates the data, loads and materializes it, and
// starts the server, setupReps times; the last set-up is kept. The heap
// the reasoner holds is measured around each build, outside the set-up
// time.
func setupServeRead(cfg runConfig, tr *tracer, o *outcome) (*dataset, *served, error) {
	var ds *dataset
	var sv *served
	var setups, heap []float64
	for rep := 0; rep < setupReps; rep++ {
		if sv != nil {
			if err := sv.stop(); err != nil {
				return nil, nil, err
			}
			sv = nil
		}
		sp := tr.start("setup", nil, 0)
		t0 := time.Now()
		d, err := generate(serveTarget, cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		gen := time.Since(t0)
		before := heapInuse()
		t0 = time.Now()
		r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
		if err := loadAndMaterialize(r, d.nt); err != nil {
			return nil, nil, err
		}
		if sv, err = serve(r); err != nil {
			return nil, nil, err
		}
		setups = append(setups, (gen + time.Since(t0)).Seconds())
		sp.end()
		heap = append(heap, ratio(heapInuse()-before, float64(r.Size())))
		ds = d
	}
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.e2e["heap_bytes_per_triple"] = metric{median(heap), "B"}
	if err := setupLayers(ds, tr, o); err != nil {
		sv.stop()
		return nil, nil, err
	}
	if err := ds.collectPools(); err != nil {
		sv.stop()
		return nil, nil, err
	}
	ds.triples = nil
	fmt.Fprintf(os.Stderr, "perfbench: seed %d: closure %d triples\n", cfg.seed, sv.r.Size())
	return ds, sv, nil
}

// readLoop runs the closed loop for cfg.seconds: each client sends the
// next request of the sequence as soon as its previous one completed.
// It returns the samples in sequence order and the time until the last
// response.
func readLoop(base string, ds *dataset, cfg runConfig, tr *tracer) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var body bytes.Buffer
			for time.Since(t0) < cfg.seconds {
				i := int(next.Add(1) - 1)
				req := ds.readRequest(cfg.seed, i)
				s := sample{idx: i}
				sp := tr.start("http.request", nil, uint64(i)+1)
				s.start = time.Since(t0)
				s.due = s.start
				err := query(c, base, req.query, &body, &s)
				s.end = time.Since(t0)
				s.ok = err == nil
				sp.count("ok", oneIf(s.ok))
				sp.count("hit", oneIf(s.hit))
				sp.count("rows", float64(s.rows))
				sp.end()
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: request %d (%s): %v\n", i, req.template, err)
				}
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	return all, elapsed
}

// verifyReads evaluates every distinct query the loop sent in-process
// and checks each HTTP response against it: the same solution count at
// the same store generation. A template with no solutions on the seed's
// data is a failed check too. It returns the in-process counts.
func verifyReads(r *inferray.Reasoner, ds *dataset, seed int64, samples []sample, o *outcome) map[string]int {
	gen := r.Generation()
	want := map[string]int{}
	for _, s := range samples {
		req := ds.readRequest(seed, s.idx)
		n, seen := want[req.query]
		if !seen {
			var err error
			if n, err = execCount(r, req.query); err != nil {
				o.problem("in-process %s: %v", req.template, err)
			}
			if n == 0 {
				o.problem("template %s has no solutions on this seed: %s", req.template, req.query)
			}
			want[req.query] = n
		}
		if s.ok && (s.rows != n || s.gen != gen) {
			o.problem("request %d (%s): %d solutions at generation %d over HTTP, %d at generation %d in-process",
				s.idx, req.template, s.rows, s.gen, n, gen)
		}
	}
	return want
}

// execCount evaluates a query in-process and counts its solutions (1 or
// 0 for an ASK).
func execCount(r *inferray.Reasoner, q string) (int, error) {
	n := 0
	res, err := r.ExecFunc(q, 0, nil, func(map[string]string) bool { n++; return true })
	if err != nil {
		return 0, err
	}
	if res.Ask && res.Truth {
		n = 1
	}
	return n, nil
}

// queryLayers replays the first replayRequests reads of a traced pass
// in-process, one layer at a time, each call in a span of the request's
// trace: the SPARQL parser alone, the query engine through
// Reasoner.ExecFunc, and the server's handler into a recorder with no
// socket (on a fresh server, so its cache sees the reads in the order
// the HTTP pass sent them). Per trace, handler minus exec is the
// encoder's share and the client-observed time minus handler the
// transport's. reads are the HTTP pass's reads in sequence order and
// texts their queries; the cache hit ratio is over all of them.
func queryLayers(r *inferray.Reasoner, reads []sample, texts []string, tr *tracer, o *outcome) error {
	var hits, oks float64
	for _, s := range reads {
		oks += oneIf(s.ok)
		hits += oneIf(s.ok && s.hit)
	}
	if len(reads) > replayRequests {
		reads, texts = reads[:replayRequests], texts[:replayRequests]
	}
	for i, s := range reads {
		sp := tr.start("sparql.parse", nil, uint64(s.idx)+1)
		_, err := sparql.ParseQuery(texts[i])
		sp.end()
		if err != nil {
			return fmt.Errorf("parsing %q: %w", texts[i], err)
		}
	}

	// One untimed evaluation of each distinct query first, so that the
	// exec and the handler spans both time warm evaluations and their
	// difference is the encoder's.
	warm := map[string]bool{}
	for _, q := range texts {
		if !warm[q] {
			warm[q] = true
			if _, err := execCount(r, q); err != nil {
				return err
			}
		}
	}

	rows := 0
	execAllocs, err := mallocs(func() error {
		for i, s := range reads {
			sp := tr.start("query.exec", nil, uint64(s.idx)+1)
			n, err := execCount(r, texts[i])
			sp.end()
			if err != nil {
				return err
			}
			rows += n
		}
		return nil
	})
	if err != nil {
		return err
	}

	h := server.NewWithConfig(r, server.DefaultConfig()).Handler()
	bodyBytes := 0
	handlerAllocs, err := mallocs(func() error {
		for i, s := range reads {
			hr := httptest.NewRequest(http.MethodGet, "/query?query="+url.QueryEscape(texts[i]), nil)
			rec := httptest.NewRecorder()
			sp := tr.start("server.handler", nil, uint64(s.idx)+1)
			h.ServeHTTP(rec, hr)
			sp.count("hit", oneIf(rec.Header().Get("X-Inferray-Cache") == "hit"))
			sp.end()
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler replay of %q: status %d", texts[i], rec.Code)
			}
			bodyBytes += rec.Body.Len()
		}
		return nil
	})
	if err != nil {
		return err
	}

	exec, handler := tr.byTrace("query.exec"), tr.byTrace("server.handler")
	var encode, transport []float64
	for _, s := range reads {
		hs := handler[uint64(s.idx)+1]
		if hs.Counts["hit"] == 0 {
			encode = append(encode, hs.ms()-exec[uint64(s.idx)+1].ms())
		}
		if s.ok {
			transport = append(transport, float64(s.end-s.start)/float64(time.Millisecond)-hs.ms())
		}
	}
	execMS, handlerMS := tr.durations("query.exec"), tr.durations("server.handler")
	o.layer["sparql.parse_us"] = metric{1000 * median(tr.durations("sparql.parse")), "us"}
	o.layer["query.exec_p50_ms"] = metric{quantile(execMS, 0.50), "ms"}
	o.layer["query.exec_p99_ms"] = metric{quantile(execMS, 0.99), "ms"}
	o.layer["query.allocs_per_row"] = metric{ratio(float64(execAllocs), float64(rows)), "count"}
	o.layer["server.handler_p50_ms"] = metric{quantile(handlerMS, 0.50), "ms"}
	o.layer["server.handler_p99_ms"] = metric{quantile(handlerMS, 0.99), "ms"}
	o.layer["server.encode_ms"] = metric{median(encode), "ms"}
	o.layer["server.allocs_per_row"] = metric{ratio(float64(handlerAllocs), float64(rows)), "count"}
	o.layer["server.bytes_per_row"] = metric{ratio(float64(bodyBytes), float64(rows)), "B"}
	o.layer["http.transport_ms"] = metric{median(transport), "ms"}
	o.layer["qcache.hit_ratio"] = metric{ratio(hits, oks), "ratio"}
	return nil
}

// setupLayers measures, in a traced pass, the layers a serve workload's
// set-up calls into: one traced bulk cycle over its base data, making
// the calls LoadNTriples and Materialize make inside the library.
func setupLayers(ds *dataset, tr *tracer, o *outcome) error {
	if tr == nil {
		return nil
	}
	if _, err := tracedCycle(ds.nt, tr, 0); err != nil {
		return err
	}
	bulkLayers(tr, o)
	return nil
}

// mallocs runs fn and returns the number of heap allocations made
// meanwhile.
func mallocs(fn func() error) (uint64, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	err := fn()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before, err
}
