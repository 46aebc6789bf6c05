package experiments

import (
	"context"
	"strings"
	"testing"

	"killi/internal/workload"
)

// coldShapes are the scheme and fault-class mixes a killi-simd first-seen
// job runs: two sweep schemes, the two non-sweep Killi variants, and a
// mixed fault population.
var coldShapes = []struct{ scheme, classes string }{
	{"killi-1:64", ""},
	{"msecc", ""},
	{"killi-dected-1:64", ""},
	{"killi-olsc2-1:64", ""},
	{"killi-1:64", "mixed:i=0.2@0.25,a=0.1@0.05,t=1e-08"},
}

// BenchmarkColdRun times one cold single run per op, shaped like a
// killi-simd first-seen job: 1,500 requests per CU, no warmup kernel (so
// DFH training starts from reset), at 0.625 x VDD, with no result cache.
// Ops cycle through the ten catalog workloads and four seeds, so every
// sub-benchmark averages over the same 40 runs whatever b.N settles on.
// Run it with -benchmem: it reports the trace build, the fault map, the
// machine and the simulation together, as a daemon job pays for them.
func BenchmarkColdRun(b *testing.B) {
	var names []string
	for _, w := range workload.Catalog() {
		names = append(names, w.Name)
	}
	for _, shape := range coldShapes {
		name := shape.scheme
		if shape.classes != "" {
			name += "/" + strings.SplitN(shape.classes, ":", 2)[0]
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Config{RequestsPerCU: 1500, Seed: uint64(i/len(names)%4 + 1), FaultClasses: shape.classes}
				if _, err := RunOneNamed(context.Background(), cfg, names[i%len(names)], shape.scheme, 0.625); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunFixedCost times a cold single run of one request per CU, so
// almost nothing but its fixed cost: the machine (built or recycled), its
// fault map, the schemes' DFH or MBIST reset and the end-of-run census.
func BenchmarkRunFixedCost(b *testing.B) {
	for _, scheme := range []string{"killi-1:64", "msecc"} {
		b.Run(scheme, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunOneNamed(context.Background(), Config{RequestsPerCU: 1}, "xsbench", scheme, 0.625); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
