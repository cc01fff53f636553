package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"inferray"
	"inferray/internal/rdf"
	"inferray/internal/reasoner"
	"inferray/internal/rules"
)

// bulkTarget is the LUBM size of bulk-lubm: ≈0.70M input triples that
// close to ≈1.35M, the paper's Table 3 setting at a size one 2-core box
// materializes about once a second.
const bulkTarget = 1_000_000

// runBulk is bulk-lubm: offline bulk reasoning. Each cycle builds a
// fresh reasoner with default options, loads the pre-serialized
// N-Triples bytes and materializes, on one calling goroutine; the
// reasoner's own sorts and rule passes use GOMAXPROCS. Nothing reaches
// the query or HTTP layers. Before the timed phase the warm-up closure
// is saved as an image; after it the benchmark restarts from that
// image.
func runBulk(cfg runConfig, tr *tracer) (*outcome, error) {
	o := newOutcome()

	var nt []byte
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		sp := tr.start("setup", nil, 0)
		t0 := time.Now()
		ds, err := generate(bulkTarget, cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
		if nt != nil && !bytes.Equal(nt, ds.nt) {
			o.problem("LUBM generation is not deterministic for seed %d", cfg.seed)
		}
		nt = ds.nt
	}
	o.e2e["setup_s"] = metric{median(setups), "s"}

	baseHeap := heapInuse()

	// Warm-up cycle: grows the heap to its working size, fixes the
	// reference closure every timed cycle must reproduce, and is the
	// closure the restarts restore.
	want, image, err := bulkWarmup(nt, cfg, tr, o)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: bulk-lubm seed %d: closure %d triples\n", cfg.seed, want.Size)

	var cycles, heapPerTriple []float64
	ok := 0
	t0 := time.Now()
	deadline := t0.Add(cfg.seconds)
	for k := uint64(1); k == 1 || time.Now().Before(deadline); k++ {
		runtime.GC()
		o.attempted++
		c0 := time.Now()
		size, digest, err := cycle(nt, tr, k)
		if err != nil {
			o.failed++
			o.problem("cycle %d: %v", k, err)
			cycles = append(cycles, float64(cfg.seconds)/float64(time.Millisecond))
			continue
		}
		cycles = append(cycles, float64(time.Since(c0))/float64(time.Millisecond))
		heapPerTriple = append(heapPerTriple, ratio(heapInuse()-baseHeap, float64(size)))
		if got := digest(); got != want {
			o.failed++
			o.problem("cycle %d: closure %+v, want %+v", k, got, want)
			continue
		}
		ok++
	}
	elapsed := time.Since(t0)
	if ok == 0 {
		return nil, errIncomplete
	}
	fmt.Fprintf(os.Stderr, "perfbench: bulk-lubm: %d timed cycles\n", len(cycles))
	opMetrics(o, cycles, ok, elapsed)
	o.e2e["heap_bytes_per_triple"] = metric{median(heapPerTriple), "B"}
	if err := imageRestarts(image, want, o); err != nil {
		return nil, err
	}
	if tr != nil {
		bulkLayers(tr, o)
	}
	return o, nil
}

// bulkWarmup runs one untimed cycle through the public API, saves its
// closure as an image, and returns the closure's digest and the image
// path. The reasoner is dropped before it returns, so the timed cycles'
// heap figures do not include it.
func bulkWarmup(nt []byte, cfg runConfig, tr *tracer, o *outcome) (closureDigest, string, error) {
	r, err := publicCycle(nt)
	if err != nil {
		return closureDigest{}, "", err
	}
	image, err := saveImage(r, cfg.tmp, tr, o)
	if err != nil {
		return closureDigest{}, "", err
	}
	return digestOf(r), image, nil
}

// cycle runs one bulk cycle, through the public API when untraced. It
// returns the closure size and a digest function, which holds the
// closure live until it is called.
func cycle(nt []byte, tr *tracer, k uint64) (int, func() closureDigest, error) {
	if tr == nil {
		r, err := publicCycle(nt)
		if err != nil {
			return 0, nil, err
		}
		return r.Size(), func() closureDigest { return digestOf(r) }, nil
	}
	e, err := tracedCycle(nt, tr, k)
	if err != nil {
		return 0, nil, err
	}
	return e.Size(), func() closureDigest { return engineDigest(e) }, nil
}

// publicCycle is one bulk cycle through the public API.
func publicCycle(nt []byte) (*inferray.Reasoner, error) {
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	if err := r.LoadNTriples(bytes.NewReader(nt)); err != nil {
		return nil, fmt.Errorf("loading: %w", err)
	}
	if _, err := r.Materialize(); err != nil {
		return nil, fmt.Errorf("materializing: %w", err)
	}
	return r, nil
}

// tracedCycle makes the calls publicCycle makes inside the library —
// rdf.ReadNTriples, reasoner.Engine.LoadTriples, Engine.Materialize —
// one by one with the same options, with a span around each. The
// materialization span carries the engine's Stats and sizes as counts.
func tracedCycle(nt []byte, tr *tracer, k uint64) (*reasoner.Engine, error) {
	root := tr.start("bulk.cycle", nil, k)
	defer root.end()

	sp := tr.start("rdf.parse", root, k)
	var batch []rdf.Triple
	err := rdf.ReadNTriples(bytes.NewReader(nt), func(t rdf.Triple) error {
		batch = append(batch, t)
		return nil
	})
	sp.count("triples", float64(len(batch)))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}

	e := reasoner.New(reasoner.Options{Fragment: rules.RDFSPlus, Parallel: true, HierarchyEncoding: true})
	sp = tr.start("reasoner.load", root, k)
	e.LoadTriples(batch)
	sp.end()

	sp = tr.start("reasoner.materialize", root, k)
	st := e.Materialize()
	sp.count("normalize_s", (st.TotalTime - st.ClosureTime - st.LoopTime).Seconds())
	sp.count("closure_s", st.ClosureTime.Seconds())
	sp.count("loop_s", st.LoopTime.Seconds())
	sp.count("iterations", float64(st.Iterations))
	sp.count("fired_ratio", ratio(float64(st.RulesFired), float64(st.RulesFired+st.RulesSkipped)))
	sp.count("virtual_share", ratio(float64(st.VirtualTriples), float64(st.TotalTriples)))
	sp.count("stored_triples", float64(e.StoredSize()))
	sp.count("terms", float64(e.Dict.NumProperties()+e.Dict.NumResources()))
	sp.end()
	return e, nil
}

func engineDigest(e *reasoner.Engine) closureDigest {
	var d closureDigest
	e.Triples(func(t rdf.Triple) bool {
		d.add(t.S, t.P, t.O)
		return true
	})
	return d
}

// bulkLayers reports the medians over the traced cycles.
func bulkLayers(tr *tracer, o *outcome) {
	o.layer["rdf.parse_s"] = metric{median(tr.durations("rdf.parse")) / 1000, "s"}
	o.layer["reasoner.load_s"] = metric{median(tr.durations("reasoner.load")) / 1000, "s"}
	counts := func(name string) []float64 {
		var out []float64
		for _, s := range tr.named("reasoner.materialize") {
			out = append(out, s.Counts[name])
		}
		return out
	}
	for _, m := range []struct{ metric, count, unit string }{
		{"reasoner.normalize_s", "normalize_s", "s"},
		{"closure.theta_s", "closure_s", "s"},
		{"rules.loop_s", "loop_s", "s"},
		{"rules.iterations", "iterations", "count"},
		{"rules.fired_ratio", "fired_ratio", "ratio"},
		{"hierarchy.virtual_share", "virtual_share", "ratio"},
		{"store.stored_triples", "stored_triples", "count"},
		{"dictionary.terms", "terms", "count"},
	} {
		o.layer[m.metric] = metric{median(counts(m.count)), m.unit}
	}
}
