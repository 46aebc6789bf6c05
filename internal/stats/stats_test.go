package stats

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCountersZeroValue(t *testing.T) {
	var c Counters
	if c.Get("x") != 0 {
		t.Fatal("untouched counter nonzero")
	}
	x := Intern("x")
	c.IncC(x)
	c.AddC(x, 4)
	if c.Get("x") != 5 {
		t.Fatalf("x = %d", c.Get("x"))
	}
}

func TestNamesSorted(t *testing.T) {
	var c Counters
	c.IncC(Intern("zeta"))
	c.IncC(Intern("alpha"))
	c.IncC(Intern("mid"))
	names := c.Names()
	if len(names) != 3 || names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Fatalf("names %v", names)
	}
}

func TestStringContainsAll(t *testing.T) {
	var c Counters
	c.AddC(Intern("hits"), 10)
	c.AddC(Intern("misses"), 3)
	s := c.String()
	if !strings.Contains(s, "hits") || !strings.Contains(s, "misses") {
		t.Fatalf("render missing counters: %q", s)
	}
	if strings.Index(s, "hits") > strings.Index(s, "misses") {
		t.Fatal("render not sorted")
	}
}

func TestHandleStringParity(t *testing.T) {
	h := Intern("parity.test.counter")
	if Intern("parity.test.counter") != h {
		t.Fatal("re-interning the same name returned a different handle")
	}
	if counterName(h) != "parity.test.counter" {
		t.Fatalf("counterName = %q", counterName(h))
	}
	var c Counters
	c.AddC(h, 7)
	c.IncC(Intern("parity.test.counter"))
	if c.Get("parity.test.counter") != 8 || c.GetC(h) != 8 {
		t.Fatalf("handle/string views disagree: %d vs %d",
			c.Get("parity.test.counter"), c.GetC(h))
	}
}

func TestUnknownHandleGetC(t *testing.T) {
	var c Counters
	h := Intern("never.touched.in.this.instance")
	if c.GetC(h) != 0 {
		t.Fatal("GetC on untouched instance nonzero")
	}
}

// TestConcurrentIntern exercises the registry under -race: many goroutines
// interning overlapping names while separate Counters instances increment.
func TestConcurrentIntern(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var c Counters
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("race.%d", i%17)
				c.IncC(Intern(name))
			}
			if c.Get("race.0") == 0 {
				t.Error("lost increments")
			}
		}(g)
	}
	wg.Wait()
}

// TestSteadyStateAddAllocFree verifies the hot-path increment does not
// allocate once the value slice covers the handle.
func TestSteadyStateAddAllocFree(t *testing.T) {
	h := Intern("alloc.test")
	var c Counters
	c.IncC(h) // grow once
	allocs := testing.AllocsPerRun(100, func() { c.AddC(h, 1) })
	if allocs != 0 {
		t.Fatalf("AddC allocates %v per op in steady state", allocs)
	}
}

func BenchmarkIncHandle(b *testing.B) {
	h := Intern("bench.handle")
	var c Counters
	c.IncC(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.IncC(h)
	}
}

func TestMPKI(t *testing.T) {
	if got := MPKI(50, 1000); got != 50 {
		t.Fatalf("MPKI = %v", got)
	}
	if got := MPKI(1, 0); got != 0 {
		t.Fatalf("MPKI with zero instructions = %v", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 2) != 0.5 || Ratio(1, 0) != 0 {
		t.Fatal("Ratio wrong")
	}
}
