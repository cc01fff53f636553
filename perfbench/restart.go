package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"inferray"
)

// The in-memory workloads restart from their image at least
// restartReps times and for at least restartMin; restart_s is the
// median. A restart of the 200k closure takes ≈70 ms and varies by
// ±30% between calls, so it takes many restarts for a steady median.
const (
	restartReps = 5
	restartMin  = 3 * time.Second
)

// heapInuse returns the bytes of heap in use after a full collection.
func heapInuse() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse)
}

// opMetrics reports a workload's operations as its user sees them. lat
// holds one latency in milliseconds per attempted operation, a failed
// one charged as latencies charges it; ok operations succeeded within
// elapsed. The tail percentiles go to standard error only: between
// runs on a shared 2-core host their spread reached 0.24-0.36 of the
// median, against a bound of 0.25.
func opMetrics(o *outcome, lat []float64, ok int, elapsed time.Duration) {
	o.e2e["op_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	o.e2e["ops_per_s"] = metric{float64(ok) / elapsed.Seconds(), "1/s"}
	fmt.Fprintf(os.Stderr, "perfbench: %d operations: p75 %.4g ms, p90 %.4g ms, p95 %.4g ms, p99 %.4g ms\n",
		len(lat), quantile(lat, 0.75), quantile(lat, 0.90), quantile(lat, 0.95), quantile(lat, 0.99))
}

// saveImage persists r's closure as an image file in dir, the
// persistence step of the offline materialize-then-serve workflow, and
// reports its size per closure triple. Traced, the save is the snapshot
// layer's checkpoint.
func saveImage(r *inferray.Reasoner, dir string, tr *tracer, o *outcome) (string, error) {
	path := filepath.Join(dir, "closure.img")
	sp := tr.start("snapshot.checkpoint", nil, 0)
	err := r.SaveImage(path)
	sp.end()
	if err != nil {
		return "", fmt.Errorf("saving the image: %w", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	perTriple := metric{ratio(float64(info.Size()), float64(r.Size())), "B"}
	o.e2e["disk_bytes_per_triple"] = perTriple
	if tr != nil {
		o.layer["snapshot.bytes_per_triple"] = perTriple
		o.layer["snapshot.checkpoint_s"] = metric{median(tr.durations("snapshot.checkpoint")) / 1000, "s"}
	}
	return path, nil
}

// imageRestarts times restarts from the image at path, each a LoadImage
// with the workloads' fragment, and checks every restored closure
// against want: the first by digest, the others by size.
func imageRestarts(path string, want closureDigest, o *outcome) error {
	var times []float64
	start := time.Now()
	for rep := 0; rep < restartReps || time.Since(start) < restartMin; rep++ {
		runtime.GC()
		t0 := time.Now()
		r, err := inferray.LoadImage(path, inferray.WithFragment(inferray.RDFSPlus))
		if err != nil {
			return fmt.Errorf("restarting from the image: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == 0 {
			if got := digestOf(r); got != want {
				o.problem("closure restored from the image %+v, want %+v", got, want)
			}
		} else if got := r.Size(); got != want.Size {
			o.problem("closure restored from the image has %d triples, want %d", got, want.Size)
		}
	}
	o.e2e["restart_s"] = metric{median(times), "s"}
	fmt.Fprintf(os.Stderr, "perfbench: %d restarts from the image: median %.4g s\n", len(times), median(times))
	return nil
}
