package workload

import (
	"testing"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 10 {
		t.Fatalf("catalog has %d workloads, want 10 (the paper's count)", len(cat))
	}
	names := map[string]bool{}
	compute, memory := 0, 0
	for _, w := range cat {
		if names[w.Name] {
			t.Fatalf("duplicate workload %q", w.Name)
		}
		names[w.Name] = true
		if w.Description == "" {
			t.Fatalf("%s has no description", w.Name)
		}
		if w.Class == MemoryBound {
			memory++
		} else {
			compute++
		}
	}
	if memory != 4 || compute != 6 {
		t.Fatalf("class split %d compute / %d memory", compute, memory)
	}
	if !names["xsbench"] || !names["fft"] {
		t.Fatal("the paper's two named workloads missing")
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("xsbench")
	if err != nil || w.Name != "xsbench" {
		t.Fatalf("ByName failed: %v", err)
	}
	if _, err := ByName("missing"); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

func TestTraceLengthAndDeterminism(t *testing.T) {
	for _, w := range Catalog() {
		a := w.trace(0, 1000, 7)
		b := w.trace(0, 1000, 7)
		if len(a) != 1000 {
			t.Fatalf("%s: trace length %d", w.Name, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: trace not deterministic at %d", w.Name, i)
			}
		}
		// Pattern-deterministic workloads (strided/stencil sweeps) may
		// ignore the seed; the stochastic ones must not.
		deterministic := map[string]bool{"fft": true, "hpgmg": true, "lulesh": true, "snap": true}
		if deterministic[w.Name] {
			continue
		}
		c := w.trace(0, 1000, 8)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == 1000 {
			t.Fatalf("%s: seed has no effect", w.Name)
		}
	}
}

func TestCUsGetDistinctStreams(t *testing.T) {
	for _, w := range Catalog() {
		a := w.trace(0, 500, 1)
		b := w.trace(1, 500, 1)
		same := 0
		for i := range a {
			if a[i].Addr == b[i].Addr {
				same++
			}
		}
		if same == 500 {
			t.Fatalf("%s: CUs 0 and 1 produce identical address streams", w.Name)
		}
	}
}

func TestTracesShape(t *testing.T) {
	tr := Catalog()[0].Traces(8, 200, 3)
	if len(tr) != 8 {
		t.Fatalf("Traces returned %d CUs", len(tr))
	}
	for cu, reqs := range tr {
		if len(reqs) != 200 {
			t.Fatalf("CU %d trace length %d", cu, len(reqs))
		}
	}
}

func TestRequestsWellFormed(t *testing.T) {
	for _, w := range Catalog() {
		for _, r := range w.trace(2, 2000, 5) {
			if r.Instrs == 0 {
				t.Fatalf("%s: request with zero instructions", w.Name)
			}
			if r.Addr%64 != 0 {
				t.Fatalf("%s: request address %#x not line-aligned", w.Name, r.Addr)
			}
		}
	}
}

func TestInstructionIntensityMatchesClass(t *testing.T) {
	// Compute-bound proxies must carry materially more instructions per
	// access than memory-bound ones — that is what makes them
	// latency-tolerant in the simulator.
	avg := func(w Workload) float64 {
		total := 0.0
		reqs := w.trace(0, 2000, 9)
		for _, r := range reqs {
			total += float64(r.Instrs)
		}
		return total / float64(len(reqs))
	}
	for _, w := range Catalog() {
		a := avg(w)
		if w.Class == ComputeBound && a < 40 {
			t.Errorf("%s: compute-bound with %.1f instrs/access", w.Name, a)
		}
		if w.Class == MemoryBound && a > 20 {
			t.Errorf("%s: memory-bound with %.1f instrs/access", w.Name, a)
		}
	}
}

func TestWriteMixPresent(t *testing.T) {
	// At least some workloads must exercise the write-through path.
	withWrites := 0
	for _, w := range Catalog() {
		for _, r := range w.trace(0, 3000, 11) {
			if r.Write {
				withWrites++
				break
			}
		}
	}
	if withWrites < 3 {
		t.Fatalf("only %d workloads issue writes", withWrites)
	}
}

func TestClassString(t *testing.T) {
	if ComputeBound.String() != "compute-bound" || MemoryBound.String() != "memory-bound" {
		t.Fatal("class names wrong")
	}
}
