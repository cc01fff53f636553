package inferray_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"inferray"
	"inferray/internal/datagen"
)

// TestWritePathScaling gates the write path's delta proportionality:
// the median bytes allocated by a one-triple INSERT DATA, and by the
// DELETE DATA that retracts it again, may grow at most 2× while the
// LUBM closure grows 10× (≈27k → ≈270k triples). Whole-table work on a
// write — a re-sort, a rescan, a rebuilt cache — allocates in proportion
// to the closure and trips the gate. The CI bench-smoke job runs it.
func TestWritePathScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes a 270k-triple closure")
	}
	smallIns, smallDel := writeAllocs(t, 20_000)
	largeIns, largeDel := writeAllocs(t, 200_000)
	for _, c := range []struct {
		op           string
		small, large float64
	}{{"INSERT DATA", smallIns, largeIns}, {"DELETE DATA", smallDel, largeDel}} {
		if c.large > 2*c.small {
			t.Errorf("%s: median %.0f B/op at ≈270k closure triples vs %.0f B/op at ≈27k (%.1f×, limit 2×)",
				c.op, c.large, c.small, c.large/c.small)
		}
	}
}

// writeAllocs materializes LUBM(target) under RDFS-Plus and returns the
// median TotalAlloc bytes of 21 one-triple inserts (a fresh student
// joins a department, the serve-mixed write) and of the 21 deletes that
// retract them. The first insert and delete also build the lazily
// cached ⟨o,s⟩ views their rules read; they count as samples like the
// rest and are logged on their own.
func writeAllocs(t *testing.T, target int) (insert, del float64) {
	t.Helper()
	triples := datagen.LUBM(target, 7)
	var depts []string
	for _, tr := range triples {
		if tr.P == "<http://example.org/lubm/memberOf>" && !slices.Contains(depts, tr.O) {
			depts = append(depts, tr.O)
		}
	}
	if len(depts) == 0 {
		t.Fatal("LUBM data has no memberOf triples")
	}
	r := inferray.New(inferray.WithFragment(inferray.RDFSPlus))
	r.AddTriples(triples)
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	triple := func(k int) string {
		return fmt.Sprintf("<http://example.org/WriteStudent%d> <http://example.org/lubm/memberOf> %s .", k, depts[k%len(depts)])
	}
	allocs := func(update string) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.Update(update); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const n = 21
	ins, dels := make([]float64, n), make([]float64, n)
	for k := 0; k < n; k++ {
		ins[k] = allocs("INSERT DATA { " + triple(k) + " }")
	}
	for k := 0; k < n; k++ {
		dels[k] = allocs("DELETE DATA { " + triple(k) + " }")
	}
	first := [2]float64{ins[0], dels[0]}
	slices.Sort(ins)
	slices.Sort(dels)
	t.Logf("LUBM %d input, %d closure triples: median insert %.0f B, delete %.0f B (first insert %.0f B, delete %.0f B)",
		target, r.Size(), ins[n/2], dels[n/2], first[0], first[1])
	return ins[n/2], dels[n/2]
}
