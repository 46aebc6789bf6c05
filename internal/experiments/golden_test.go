package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"killi/internal/gpu"
	"killi/internal/killi"
	"killi/internal/obs"
	"killi/internal/protection"
)

// TestGoldenCounterDigest hashes every counter name and value after a short
// fixed-seed Killi run and compares against the digest captured on the
// string-keyed, container/heap, rehash-per-hit implementation, proving the
// interned-counter / typed-heap / content-model rewrite changed no
// statistic. The exact Result fields are pinned alongside.
func TestGoldenCounterDigest(t *testing.T) {
	res, err := RunOne(context.Background(), Config{RequestsPerCU: 800, Seed: 1}, "xsbench",
		func() protection.Scheme { return killi.New(killi.Config{Ratio: 64}) }, 0.625)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, n := range res.Counters.Names() {
		fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
	}
	const want = uint64(0x6cdf00dbcf931efb)
	if got := h.Sum64(); got != want {
		for _, n := range res.Counters.Names() {
			t.Logf("%s=%d", n, res.Counters.Get(n))
		}
		t.Fatalf("counter digest = %#x, want %#x (a statistic changed)", got, want)
	}
	if res.Cycles != 26032 || res.Instructions != 12800 ||
		res.L2Misses != 5796 || res.L2Accesses != 6361 ||
		res.MemAccesses != 5796 || res.DisabledLines != 2 {
		t.Fatalf("result fields diverged from golden: cycles=%d instrs=%d l2miss=%d l2acc=%d mem=%d disabled=%d",
			res.Cycles, res.Instructions, res.L2Misses, res.L2Accesses,
			res.MemAccesses, res.DisabledLines)
	}
}

// TestGoldenCounterDigestObserved repeats the golden run with a Collector
// attached and demands the identical digest and Result fields: attaching an
// observer must never perturb the simulated machine (sampling only reads
// state; daemon ticker events never affect non-daemon ordering). It then
// sanity-checks what the collector saw.
func TestGoldenCounterDigestObserved(t *testing.T) {
	col := obs.NewCollector()
	res, err := RunOneObserved(context.Background(), Config{RequestsPerCU: 800, Seed: 1}, "xsbench",
		func() protection.Scheme { return killi.New(killi.Config{Ratio: 64}) }, 0.625, col, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, n := range res.Counters.Names() {
		fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
	}
	const want = uint64(0x6cdf00dbcf931efb)
	if got := h.Sum64(); got != want {
		t.Fatalf("observed-run counter digest = %#x, want %#x (observation perturbed the simulation)", got, want)
	}
	if res.Cycles != 26032 || res.DisabledLines != 2 {
		t.Fatalf("observed-run result diverged: cycles=%d disabled=%d", res.Cycles, res.DisabledLines)
	}

	// The collector's view must agree with the simulator's own statistics.
	if len(col.Resets()) == 0 {
		t.Fatal("collector recorded no DFH reset")
	}
	if got := col.Populations()[obs.StateDisabled]; got != res.DisabledLines {
		t.Fatalf("collector disabled population %d, want %d", got, res.DisabledLines)
	}
	eps := col.Epochs()
	if len(eps) == 0 {
		t.Fatal("collector recorded no epochs")
	}
	var accs, instrs uint64
	lastCycle := uint64(0)
	for i, e := range eps {
		if e.Cycle < lastCycle {
			t.Fatalf("epoch %d cycle %d precedes previous %d", i, e.Cycle, lastCycle)
		}
		lastCycle = e.Cycle
		accs += e.L2Accesses
		instrs += e.Instructions
		if sum := e.DFH[0] + e.DFH[1] + e.DFH[2] + e.DFH[3]; sum != col.Lines() {
			t.Fatalf("epoch %d DFH populations sum to %d, want %d lines", i, sum, col.Lines())
		}
	}
	// Epoch deltas must tile the run exactly: summed L2 accesses and
	// instructions equal the run totals (final partial epoch included).
	if accs != res.L2Accesses {
		t.Fatalf("summed epoch L2 accesses %d, want %d", accs, res.L2Accesses)
	}
	if instrs != res.Instructions {
		t.Fatalf("summed epoch instructions %d, want %d", instrs, res.Instructions)
	}
	if last := eps[len(eps)-1]; last.Cycle != res.Cycles {
		t.Fatalf("final flush sampled at cycle %d, want run end %d", last.Cycle, res.Cycles)
	}
}

// TestGoldenSoftErrorDigest pins the simulator's soft-error semantics: the
// counters and result scalars of fixed-seed runs with per-read soft errors
// (unprotected and under Killi) and with a mixed fault-class spec whose
// transient strikes flip resident lines between accesses. The digests were
// captured while soft flips still rewrote the stored payload and the bank
// kept a second copy of every line as SDC ground truth; the sparse flip
// overlay that replaced both must reproduce them bit for bit.
func TestGoldenSoftErrorDigest(t *testing.T) {
	soft := gpu.DefaultConfig()
	soft.SoftErrorPerRead = 0.01
	cases := []struct {
		name     string
		workload string
		scheme   string
		cfg      Config
		want     uint64
	}{
		// nekbone's shared hot set makes plenty of L2 read hits, the only
		// accesses that draw per-read soft errors.
		{"none/soft", "nekbone", "none", Config{GPU: &soft, WarmupKernels: 1}, 0xeb21b6557bf8c27f},
		{"killi/soft", "nekbone", "killi-1:64", Config{GPU: &soft, WarmupKernels: 1}, 0x67d1c35facb8d25a},
		{"killi/mixed", "xsbench", "killi-1:64", Config{
			FaultClasses:  "mixed:i=0.2@0.5,a=0.1@0.5,t=1e-7",
			WarmupKernels: 2, ScrubKernels: 1}, 0xdba84646bfbe4443},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.RequestsPerCU, cfg.Seed = 1500, 1
			newScheme, err := SchemeFactoryByName(tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunOne(context.Background(), cfg, tc.workload, newScheme, 0.625)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, n := range res.Counters.Names() {
				fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
			}
			fmt.Fprintf(h, "%+v\n", CacheableResult(res))
			if got := h.Sum64(); got != tc.want {
				for _, n := range res.Counters.Names() {
					t.Logf("%s=%d", n, res.Counters.Get(n))
				}
				t.Fatalf("digest = %#x, want %#x (soft-error semantics changed)", got, tc.want)
			}
		})
	}
}

// TestGoldenBaselineDigest pins the MBIST baselines (SECDED, DECTED, FLAIR
// and MS-ECC) under per-read soft errors, a mixed fault-class spec and
// plain persistent faults, with the digest recipe of
// TestGoldenSoftErrorDigest. The digests were captured while each baseline
// kept a private copy of every line to re-encode from; reading the
// controller's payload from the data array instead must reproduce them bit
// for bit.
func TestGoldenBaselineDigest(t *testing.T) {
	soft := gpu.DefaultConfig()
	soft.SoftErrorPerRead = 0.01
	conds := []struct {
		name     string
		workload string
		vdd      float64
		cfg      Config
	}{
		{"soft", "nekbone", 0.625, Config{GPU: &soft, WarmupKernels: 1}},
		{"mixed", "xsbench", 0.6, Config{
			FaultClasses:  "mixed:i=0.2@0.5,a=0.1@0.5,t=1e-7",
			WarmupKernels: 2, ScrubKernels: 1}},
		{"plain", "fft", 0.575, Config{WarmupKernels: 1}},
	}
	want := map[string]uint64{
		"secded/soft": 0xc63bde1402373361, "secded/mixed": 0x45830bb7a3fd5609, "secded/plain": 0x2baa750a43bb9e71,
		"dected/soft": 0x016140c816c0238d, "dected/mixed": 0xfd6edd7e9e8bde92, "dected/plain": 0x61c3f0ada72fb090,
		"flair/soft": 0x5119b931eef6093a, "flair/mixed": 0x0fe9588945cdd9ce, "flair/plain": 0x2baa750a43bb9e71,
		"msecc/soft": 0x8d7704f985099f39, "msecc/mixed": 0x490392c8f8043969, "msecc/plain": 0xbbf7b7a22d4e4b0d,
	}
	for _, scheme := range []string{"secded", "dected", "flair", "msecc"} {
		for _, c := range conds {
			name := scheme + "/" + c.name
			t.Run(name, func(t *testing.T) {
				cfg := c.cfg
				cfg.RequestsPerCU, cfg.Seed = 1500, 1
				newScheme, err := SchemeFactoryByName(scheme)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunOne(context.Background(), cfg, c.workload, newScheme, c.vdd)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				for _, n := range res.Counters.Names() {
					fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
				}
				fmt.Fprintf(h, "%+v\n", CacheableResult(res))
				if got := h.Sum64(); got != want[name] {
					for _, n := range res.Counters.Names() {
						t.Logf("%s=%d", n, res.Counters.Get(n))
					}
					t.Fatalf("digest = %#x, want %#x (a baseline's statistics changed)", got, want[name])
				}
			})
		}
	}
}
