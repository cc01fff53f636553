package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"inferray"
)

// mixedRate is serve-mixed's fixed arrival rate, an eighth of the mix's
// closed-loop saturation on a 2-core box (≈360 requests/s). Reads that
// arrive while a write holds the lock queue behind it, and the queueing
// grows with the rate: at 180/s the loop fell into a growing backlog in
// two of five runs, at 120/s about 40% of reads queued, and at 90/s
// the median request spread 0.25 of its median over five runs on a
// shared 2-core host, against 0.04-0.08 at 45/s.
const mixedRate = 45

// reopenReps is how many times serve-mixed reopens its data directory
// after the phase; restart_s is the median. Each reopen replays the
// whole WAL of the phase.
const reopenReps = 3

// replayWrites is how many inserts (and as many deletes) a traced
// serve-mixed pass replays in-process on the reopened reasoner.
const replayWrites = 40

// runServeMixed is serve-mixed: an open loop at mixedRate requests per
// second, over at most two connections, against a durable reasoner with
// the default "interval" sync policy. 90% of requests read a hot set
// that fits the cache, 5% insert one triple and 5% delete a triple the
// run inserted earlier; every write invalidates the cache, holds the
// write lock readers queue behind, and appends to the WAL. After the
// timed phase the reasoner is closed and the data directory reopened,
// which replays this run's writes.
func runServeMixed(cfg runConfig, tr *tracer) (*outcome, error) {
	o := newOutcome()
	m, err := setupServeMixed(cfg, tr, o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(m.dir)
	r := m.sv.r
	if st, ok := r.DurabilityStats(); ok {
		fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: sync policy %s, %d requests/s over %d connections\n", st.SyncPolicy, mixedRate, clients)
	}

	m0 := r.Metrics()
	run := mixedLoop(m.sv.base, m.ds, cfg, tr)
	m1 := r.Metrics()
	size := r.Size()
	if err := m.sv.stop(); err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("closing: %w", err)
	}

	var reads, writes, acked int
	for _, s := range run.samples {
		o.attempted++
		if !s.ok {
			o.failed++
		}
		if s.write {
			writes++
			if s.ok {
				acked++
			}
		} else {
			reads++
			if s.ok && s.rows == 0 {
				o.problem("read %d returned no solutions", s.idx)
			}
		}
	}
	if reads == 0 || writes == 0 {
		return nil, errIncomplete
	}
	var elapsed time.Duration
	for _, s := range run.samples {
		elapsed = max(elapsed, s.end)
	}
	opMetrics(o, latencies(run.samples, cfg.seconds, func(sample) bool { return true }), o.attempted-o.failed, elapsed)
	lat := func(q float64, keep func(sample) bool) float64 {
		return quantile(latencies(run.samples, cfg.seconds, keep), q)
	}
	read := func(s sample) bool { return !s.write }
	late := run.lateness()
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: %d reads, %d writes; generator late p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
		reads, writes, quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1))
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: read p50 %.3f ms, p99 %.3f ms; insert p50 %.3f ms; delete p50 %.3f ms; write p95 %.3f ms\n",
		lat(0.5, read), lat(0.99, read), lat(0.5, func(s sample) bool { return s.insert }),
		lat(0.5, func(s sample) bool { return s.write && !s.insert }), lat(0.95, func(s sample) bool { return s.write }))

	disk, err := dirBytes(m.dir)
	if err != nil {
		return nil, err
	}
	o.e2e["disk_bytes_per_triple"] = metric{ratio(float64(disk), float64(size)), "B"}

	r2, recoverS, err := reopen(m.opts, o)
	if err != nil {
		return nil, err
	}
	o.e2e["restart_s"] = metric{recoverS, "s"}
	defer r2.Close()

	if got := r2.Size(); got != size {
		o.problem("reopened closure has %d triples, %d before close", got, size)
	}
	for k, ack := range run.inserted {
		if !ack {
			continue
		}
		t := m.ds.inserted(cfg.seed, k)
		holds := r2.Holds(t[0], t[1], t[2])
		switch {
		case run.deleted[k] && holds:
			o.problem("deleted triple %v holds after reopen", t)
		case !run.deleted[k] && !holds:
			o.problem("inserted triple %v is lost after reopen", t)
		}
	}

	if tr != nil {
		dst, _ := r2.DurabilityStats()
		o.layer["loadgen.late_p99_ms"] = metric{quantile(late, 0.99), "ms"}
		o.layer["wal.bytes_per_write"] = metric{ratio(float64(m1.WALAppendBytes-m0.WALAppendBytes), float64(acked)), "B"}
		o.layer["wal.fsyncs_per_write"] = metric{ratio(float64(m1.WALFsyncs-m0.WALFsyncs), float64(acked)), "count"}
		o.layer["wal.replay_ms_per_record"] = metric{ratio(1000*recoverS, float64(dst.ReplayedRecords)), "ms"}
		retractions := float64(m1.Retractions - m0.Retractions)
		o.layer["reasoner.overdeleted_per_delete"] = metric{ratio(float64(m1.OverdeletedTriples-m0.OverdeletedTriples), retractions), "count"}
		o.layer["reasoner.rederived_per_delete"] = metric{ratio(float64(m1.RederivedTriples-m0.RederivedTriples), retractions), "count"}
		o.layer["snapshot.checkpoint_s"] = metric{median(tr.durations("snapshot.checkpoint")) / 1000, "s"}
		o.layer["snapshot.bytes_per_triple"] = metric{ratio(float64(m.snapshotBytes), float64(m.baseSize)), "B"}
		readBlockLayers(run.samples, o)
		var reads []sample
		var texts []string
		for _, s := range run.samples {
			if !s.write {
				reads = append(reads, s)
				texts = append(texts, m.ds.mixedRequest(cfg.seed, s.idx).query)
			}
		}
		if err := queryLayers(r2, reads, texts, tr, o); err != nil {
			return nil, err
		}
		if err := replayUpdates(r2, m.ds, cfg.seed, tr, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// reopen opens the closed data directory reopenReps times, closing
// all but the last, and returns the last reasoner and the median time
// an Open took. Every Open must replay as many WAL records.
func reopen(opts []inferray.Option, o *outcome) (*inferray.Reasoner, float64, error) {
	var times []float64
	var r *inferray.Reasoner
	replayed := -1
	for rep := 0; rep < reopenReps; rep++ {
		if r != nil {
			if err := r.Close(); err != nil {
				return nil, 0, fmt.Errorf("closing: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = inferray.Open(opts...); err != nil {
			return nil, 0, fmt.Errorf("reopening: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		st, _ := r.DurabilityStats()
		if replayed >= 0 && int(st.ReplayedRecords) != replayed {
			o.problem("reopen %d replayed %d WAL records, the first %d", rep, st.ReplayedRecords, replayed)
		}
		replayed = int(st.ReplayedRecords)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: reopens replaying %d records: %.4g s\n", replayed, times)
	return r, median(times), nil
}

// mixedSetup is the kept set-up of a serve-mixed pass.
type mixedSetup struct {
	ds            *dataset
	sv            *served
	dir           string
	opts          []inferray.Option
	snapshotBytes int64
	baseSize      int
}

// setupServeMixed opens a durable reasoner on a fresh directory, loads
// and materializes the base data, checkpoints it and starts the server,
// setupReps times; the last set-up is kept.
func setupServeMixed(cfg runConfig, tr *tracer, o *outcome) (*mixedSetup, error) {
	var m *mixedSetup
	var setups, heap []float64
	for rep := 0; rep < setupReps; rep++ {
		if m != nil {
			if err := m.sv.stop(); err != nil {
				return nil, err
			}
			if err := m.sv.r.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(m.dir)
		}
		dir, err := os.MkdirTemp(cfg.tmp, "data-")
		if err != nil {
			return nil, err
		}
		m = &mixedSetup{dir: dir, opts: []inferray.Option{
			inferray.WithFragment(inferray.RDFSPlus),
			inferray.WithDurability(dir, inferray.DurabilityOptions{}),
		}}
		sp := tr.start("setup", nil, 0)
		t0 := time.Now()
		if m.ds, err = generate(serveTarget, cfg.seed); err != nil {
			return nil, err
		}
		gen := time.Since(t0)
		before := heapInuse()
		t0 = time.Now()
		r, err := inferray.Open(m.opts...)
		if err != nil {
			return nil, fmt.Errorf("opening: %w", err)
		}
		if err := loadAndMaterialize(r, m.ds.nt); err != nil {
			return nil, err
		}
		cp := tr.start("snapshot.checkpoint", sp, 0)
		info, err := r.Checkpoint()
		cp.end()
		if err != nil {
			return nil, fmt.Errorf("checkpointing: %w", err)
		}
		if m.sv, err = serve(r); err != nil {
			return nil, err
		}
		setups = append(setups, (gen + time.Since(t0)).Seconds())
		sp.end()
		heap = append(heap, ratio(heapInuse()-before, float64(r.Size())))
		m.snapshotBytes = info.SnapshotBytes
		m.baseSize = r.Size()
	}
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.e2e["heap_bytes_per_triple"] = metric{median(heap), "B"}
	err := setupLayers(m.ds, tr, o)
	if err == nil {
		err = m.ds.collectPools()
	}
	if err != nil {
		m.sv.stop()
		m.sv.r.Close()
		return nil, err
	}
	m.ds.triples = nil
	fmt.Fprintf(os.Stderr, "perfbench: seed %d: closure %d triples\n", cfg.seed, m.baseSize)
	return m, nil
}

// mixedRun is the record of one open-loop phase: the samples in
// sequence order, and per insert ordinal whether the insert and its
// delete were acknowledged.
type mixedRun struct {
	samples           []sample
	inserted, deleted []bool
}

// mixedLoop sends request i of the sequence at i/mixedRate seconds into
// the phase over two connections. Latency runs from the due time, so
// when both connections are busy the wait counts. A delete waits until
// the insert it removes was answered.
func mixedLoop(base string, ds *dataset, cfg runConfig, tr *tracer) *mixedRun {
	n := int(cfg.seconds.Seconds() * mixedRate)
	interval := time.Second / mixedRate
	inserts := n/mixedBlock + 1
	run := &mixedRun{inserted: make([]bool, inserts), deleted: make([]bool, inserts)}
	answered := make([]chan struct{}, inserts)
	for k := range answered {
		answered[k] = make(chan struct{})
	}
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
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := sample{idx: i, due: time.Duration(i) * interval}
				if wait := s.due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				req := ds.mixedRequest(cfg.seed, i)
				s.write, s.insert = req.update != "", req.insert
				if req.delete {
					<-answered[req.ordinal]
				}
				sp := tr.start("http.request", nil, uint64(i)+1)
				s.start = time.Since(t0)
				var err error
				switch {
				case req.delete && !run.inserted[req.ordinal]:
					err = fmt.Errorf("insert %d was not acknowledged", req.ordinal)
				case s.write:
					err = update(c, base, req.update, &body)
					if err == nil {
						err = checkUpdate(body.Bytes(), req)
					}
				default:
					err = query(c, base, req.query, &body, &s)
				}
				s.end = time.Since(t0)
				sp.end()
				s.ok = err == nil
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: request %d (%s): %v\n", i, req.template, err)
				}
				switch {
				case req.insert:
					run.inserted[req.ordinal] = s.ok
					close(answered[req.ordinal])
				case req.delete:
					run.deleted[req.ordinal] = s.ok
				}
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range per {
		run.samples = append(run.samples, p...)
	}
	sort.Slice(run.samples, func(a, b int) bool { return run.samples[a].idx < run.samples[b].idx })
	return run
}

// lateness is how late the generator sent each request, in
// milliseconds after its due time.
func (run *mixedRun) lateness() []float64 {
	out := make([]float64, len(run.samples))
	for i, s := range run.samples {
		out[i] = float64(s.start-s.due) / float64(time.Millisecond)
	}
	return out
}

// checkUpdate checks that an update response reports the one triple the
// request inserted or deleted.
func checkUpdate(body []byte, req request) error {
	var resp struct {
		Inserted int `json:"inserted"`
		Deleted  int `json:"deleted"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("update response: %w", err)
	}
	if req.insert && resp.Inserted != 1 || req.delete && resp.Deleted != 1 {
		return fmt.Errorf("update reported inserted=%d deleted=%d", resp.Inserted, resp.Deleted)
	}
	return nil
}

// readBlockLayers splits the reads by whether their interval overlapped
// a write's: those reads may have queued behind the write lock.
func readBlockLayers(samples []sample, o *outcome) {
	var writes []sample
	for _, s := range samples {
		if s.write {
			writes = append(writes, s)
		}
	}
	var blocked, free []float64
	reads := 0
	for _, s := range samples {
		if s.write || !s.ok {
			continue
		}
		reads++
		overlaps := false
		for _, w := range writes {
			if w.start < s.end && s.start < w.end {
				overlaps = true
				break
			}
		}
		if overlaps {
			blocked = append(blocked, s.latencyMS())
		} else {
			free = append(free, s.latencyMS())
		}
	}
	o.layer["server.read_blocked_share"] = metric{ratio(float64(len(blocked)), float64(reads)), "ratio"}
	o.layer["server.read_blocked_ms"] = metric{median(blocked), "ms"}
	o.layer["server.read_free_ms"] = metric{median(free), "ms"}
}

// replayUpdates times Reasoner.Update in-process on the durable
// reasoner, with the sequence's shape: each insert followed, deleteLag
// inserts later, by its delete.
func replayUpdates(r *inferray.Reasoner, ds *dataset, seed int64, tr *tracer, o *outcome) error {
	const base = 1 << 20 // ordinals past any the HTTP phase used
	update := func(kind, text string, k int) error {
		sp := tr.start("reasoner."+kind, nil, uint64(base+k))
		_, err := r.Update(text)
		sp.end()
		if err != nil {
			return fmt.Errorf("in-process %s: %w", kind, err)
		}
		return nil
	}
	for k := 0; k < replayWrites+deleteLag; k++ {
		if k < replayWrites {
			if err := update("insert", ds.insertText(seed, base+k), k); err != nil {
				return err
			}
		}
		if k >= deleteLag {
			if err := update("delete", ds.deleteText(seed, base+k-deleteLag), k-deleteLag); err != nil {
				return err
			}
		}
	}
	o.layer["reasoner.insert_ms"] = metric{median(tr.durations("reasoner.insert")), "ms"}
	o.layer["reasoner.delete_ms"] = metric{median(tr.durations("reasoner.delete")), "ms"}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
