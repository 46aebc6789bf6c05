package experiments

import (
	"context"
	"math"
	"strconv"
	"testing"

	"killi/internal/gpu"
	"killi/internal/workload"
)

// Shape-regression suite: pins the qualitative shape of the Figure 4/5
// reproduction (DESIGN.md §4) rather than exact numbers, so legitimate model
// changes that keep the paper's story intact still pass while regressions of
// the "Killi 9-14x slower, flat across ECC ratios" kind fail loudly.
//
// The full suite simulates the whole catalog at steady state (a little over
// a minute single-threaded); -short runs a scaled-down sweep with coarser
// assertions.

// shapeConfig returns the sweep configuration the shape assertions are
// calibrated against, scaled down under -short.
func shapeConfig(short bool) Config {
	cfg := Config{
		RequestsPerCU: 6000,
		WarmupKernels: 2,
		Parallelism:   -1,
	}
	if short {
		cfg.RequestsPerCU = 3000
		cfg.WarmupKernels = 1
		cfg.Workloads = []string{"nekbone", "lulesh", "xsbench", "fft"}
	}
	return cfg
}

// ratioName formats a Killi scheme name for an ECC cache ratio.
func ratioName(r int) string { return "killi-1:" + strconv.Itoa(r) }

func TestFig45Shape(t *testing.T) {
	short := testing.Short()
	rows, err := Run(context.Background(), shapeConfig(short))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Workload] = r
		t.Logf("%-12s %-13s baseMPKI=%7.2f norm=%v disabled=%v",
			r.Workload, r.Class, r.BaselineMPKI, r.Normalized, r.Disabled)
	}

	lines := gpu.DefaultConfig().L2Bytes / gpu.DefaultConfig().LineBytes

	// Killi within 5% of baseline on all but one workload at every ECC
	// cache ratio. The one is miniamr, slowed by the per-bank DRAM queues
	// (DESIGN.md § Divergences); the paper claims more (within 1% on 8/10,
	// 5% at most). The -short catalog also allows one outlier.
	allowedOutliers := len(rows) - 9
	if short {
		allowedOutliers = 1
	}
	for _, ratio := range KilliRatios {
		name := ratioName(ratio)
		outliers := 0
		for _, r := range rows {
			if math.Abs(r.Normalized[name]-1) > 0.05 {
				outliers++
				t.Logf("outlier: %s %s %.4f", r.Workload, name, r.Normalized[name])
			}
		}
		if outliers > allowedOutliers {
			t.Errorf("%s: %d workloads deviate more than 5%% from baseline (allowed %d)",
				name, outliers, allowedOutliers)
		}
	}

	// The two ECC-cache-size-sensitive workloads (paper Fig. 4): normalized
	// time falls from 1:256 to 1:16 with a clearly nonzero spread (no more
	// identical columns), never rises by more than a slack as the ECC cache
	// grows, and the smallest ECC cache costs real time.
	for _, wname := range []string{"xsbench", "fft"} {
		r, ok := byName[wname]
		if !ok {
			t.Fatalf("workload %s missing from sweep", wname)
		}
		// Adjacent ratios deep in the thrash regime differ only by noise
		// (the per-bank fault layout at one seed can cost a specific ratio
		// ~2% of cycles), so the pairwise check carries slack; the endpoint
		// checks below pin the actual trend.
		slack := 0.025
		if short {
			slack = 0.03
		}
		for i := 1; i < len(KilliRatios); i++ {
			big, small := ratioName(KilliRatios[i-1]), ratioName(KilliRatios[i])
			if r.Normalized[small] > r.Normalized[big]+slack {
				t.Errorf("%s: normalized time rises as the ECC cache grows: %s %.4f -> %s %.4f",
					wname, big, r.Normalized[big], small, r.Normalized[small])
			}
		}
		first, last := r.Normalized[ratioName(256)], r.Normalized[ratioName(16)]
		minSpread, minCost := 0.006, 1.005
		if short {
			minSpread, minCost = 0.001, 1.0
		}
		if first-last < minSpread {
			t.Errorf("%s: ECC ratio sweep is flat: killi-1:256 %.4f vs killi-1:16 %.4f",
				wname, first, last)
		}
		if first < minCost {
			t.Errorf("%s: the 1:256 ECC cache shows no thrash cost: %.4f", wname, first)
		}
	}

	// Memory-bound workloads stay memory-bound and every scheme's sweep
	// stays within sane bounds.
	for _, r := range rows {
		if r.Class == workload.MemoryBound && !short && r.BaselineMPKI < 40 {
			t.Errorf("%s: baseline MPKI %.2f too low for a memory-bound workload",
				r.Workload, r.BaselineMPKI)
		}
		for name, norm := range r.Normalized {
			if norm < 0.9 || norm > 3 {
				t.Errorf("%s/%s: normalized time %.4f out of sane range", r.Workload, name, norm)
			}
		}
	}

	// MS-ECC pays a nonzero capacity cost: it sacrifices half the ways below
	// the knee, which must show up both in disabled lines and as extra
	// misses/time on cache-pressured workloads.
	msPressured := false
	for _, r := range rows {
		if r.Disabled["msecc"] < lines/4 {
			t.Errorf("%s: MS-ECC disabled only %d of %d lines; expected at least a quarter",
				r.Workload, r.Disabled["msecc"], lines)
		}
		if r.Normalized["msecc"] > 1.05 || r.MPKI["msecc"] > r.BaselineMPKI*1.2 {
			msPressured = true
		}
	}
	if !msPressured {
		t.Error("MS-ECC shows no capacity-induced time or MPKI cost on any workload")
	}

	// Killi disables only the rare multi-bit-faulty lines — a tiny fraction
	// of the array, never the wholesale disabling of the flat-column bug era.
	for _, r := range rows {
		for _, ratio := range KilliRatios {
			name := ratioName(ratio)
			if d := r.Disabled[name]; d < 0 || d > lines/20 {
				t.Errorf("%s/%s: %d disabled lines (of %d) is not sane", r.Workload, name, d, lines)
			}
		}
	}
}
