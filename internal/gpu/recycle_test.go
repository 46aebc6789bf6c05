package gpu

import (
	"reflect"
	"testing"

	"killi/internal/faultmodel"
	"killi/internal/killi"
	"killi/internal/obs"
	"killi/internal/protection"
)

// recycle releases sys and requires the next NewShared of its geometry to
// hand it back.
func recycle(t *testing.T, sys *System, cfg Config, f protection.Factory, shared *SharedFaults) *System {
	t.Helper()
	sys.Release()
	got := NewShared(cfg, f, shared)
	if got != sys {
		t.Fatal("NewShared did not recycle the System just released")
	}
	return got
}

// TestReleasedSystemMatchesFresh pins System.Release and NewShared's reuse
// of it: a System that ran with soft errors, transient strikes, injected
// aging faults, an observer and four shards, then was released and rebuilt
// for a clean configuration, holds exactly the state a freshly allocated
// System of that configuration holds — payloads and flip overlays, tags,
// L1s, line tables, DRAM queues, RNG streams, counters, clocks — and runs
// the same kernel to the same counters.
func TestReleasedSystemMatchesFresh(t *testing.T) {
	dirty := smallConfig(0.625)
	dirty.SoftErrorPerRead = 0.01
	dirty.TagSoftErrorPerLookup = 0.001
	dirty.Classes = mixedSpec(t, "mixed:i=0.2@0.25,t=1e-06")
	sys := New(dirty, killiFac(killi.Config{Ratio: 64}))
	sys.SetShards(4)
	sys.SetObserver(obs.NewCollector(), 0)
	sys.Run(shortTraces("xsbench", 2000))
	sys.InjectAgingFaults(7, 50)
	sys.SetVoltage(0.65, 100)
	sys.Run(shortTraces("fft", 1000))

	clean := smallConfig(0.625)
	clean.FaultSeed = 3
	faults := BuildSharedFaults(clean)
	f := killiFac(killi.Config{Ratio: 32})
	got := recycle(t, sys, clean, f, faults)
	want := &System{geom: geometryOf(clean)}
	want.init(clean, f, faults)
	sameState(t, got, want)

	traces := shortTraces("xsbench", 1500)
	if g, w := resultDigest(got.Run(traces)), resultDigest(want.Run(traces)); g != w {
		t.Fatalf("recycled System's run digests to %#x, a fresh one's to %#x", g, w)
	}
}

// TestReleaseKeepsGeometry pins the free list's shape rule: a released
// System is recycled only by a NewShared of its own geometry, and
// releasing a System of another geometry drops it, so idle machines of a
// shape no longer in use are left to the garbage collector.
func TestReleaseKeepsGeometry(t *testing.T) {
	cfg := smallConfig(0.625)
	none := fac(protection.NewNone)
	sys := New(cfg, none)
	sys.Release()
	other := cfg
	other.L2Bytes = 256 << 10
	big := New(other, none)
	if big == sys || big.L2Lines() != 4096 {
		t.Fatalf("a %d-line System came back for a 4096-line configuration", sys.L2Lines())
	}
	big.Release()
	if New(cfg, none) == sys {
		t.Fatal("a System stayed on the free list after one of another geometry was released")
	}
}

// sameState fails unless got and want hold the same machine state.
func sameState(t *testing.T, got, want *System) {
	t.Helper()
	check := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: recycled %+v, fresh %+v", what, g, w)
		}
	}
	check("config", got.cfg, want.cfg)
	check("clock", got.eng.Now(), want.eng.Now())
	check("queued events", got.eng.Pending(), want.eng.Pending())
	check("shards", []int{got.shards, got.eng.Shards()}, []int{want.shards, want.eng.Shards()})
	check("stall", got.stallUntil, want.stallUntil)
	check("fault classes", []any{got.classed, got.classEpoch}, []any{want.classed, want.classEpoch})
	check("observer", got.observer == nil && got.sampler == nil, true)
	check("counters", got.Stats().Names(), want.Stats().Names())
	for i, c := range got.cus {
		wc := want.cus[i]
		check("L1", c.l1, wc.l1)
		check("CU issue state", []any{c.trace, c.idx, c.inflight, c.lastIssue, c.started, c.instrs, c.instrsTotal},
			[]any{wc.trace, wc.idx, wc.inflight, wc.lastIssue, wc.started, wc.instrs, wc.instrsTotal})
	}
	for i, b := range got.banks {
		wb := want.banks[i]
		check("L2 tags", b.tags, wb.tags)
		check("data array", b.data, wb.data)
		check("line table live entries", b.lineState.live, 0)
		for _, k := range b.lineState.keys {
			if k != 0 {
				t.Fatalf("bank %d: line table still holds line %d", i, k-1)
			}
		}
		check("DRAM queue", b.mem, wb.mem)
		check("RNG streams", []any{b.softRNG, b.replRNG, b.strikeRNG}, []any{wb.softRNG, wb.replRNG, wb.strikeRNG})
		check("bank pipeline", []any{b.free, b.readBuf, b.versionsHighWater, b.obsBuf == nil},
			[]any{wb.free, wb.readBuf, wb.versionsHighWater, wb.obsBuf == nil})
		check("scheme", b.scheme.Name(), wb.scheme.Name())
	}
}

// TestPrivateFaultsMemo pins NewShared's private fault-map memo: equal
// keys share one immutable population, changing any one of the six key
// fields builds another, the table holds no more than faultMemoSize
// populations, and a memoized population equals a fresh BuildSharedFaults.
func TestPrivateFaultsMemo(t *testing.T) {
	base := smallConfig(0.625)
	base.FaultSeed = 91
	a := privateFaults(base)
	if privateFaults(base) != a {
		t.Fatal("equal keys built two fault populations")
	}
	if b := BuildSharedFaults(base); !reflect.DeepEqual(a, b) {
		t.Fatal("memoized population differs from BuildSharedFaults")
	}
	vary := map[string]func(*Config){
		"FaultSeed":  func(c *Config) { c.FaultSeed++ },
		"FaultModel": func(c *Config) { c.FaultModel = faultmodel.Model{FreqSlope: 1.0, WriteShare: 0.5} },
		"lines":      func(c *Config) { c.L2Bytes *= 2 },
		"RefVoltage": func(c *Config) { c.RefVoltage = 0.6 },
		"Voltage":    func(c *Config) { c.Voltage = 0.65 },
		"FreqGHz":    func(c *Config) { c.FreqGHz = 0.8 },
	}
	for name, change := range vary {
		c := base
		change(&c)
		if privateFaults(c) == a {
			t.Errorf("changing %s returned the base population", name)
		}
		// The round-robin may have evicted base by now; look it up again
		// so the next field is compared against the memoized one.
		a = privateFaults(base)
	}
	// faultMemoSize other keys push base out: the table is bounded, not a
	// cache of every population ever built.
	for i := 1; i <= faultMemoSize; i++ {
		c := base
		c.FaultSeed += uint64(100 * i)
		privateFaults(c)
	}
	if privateFaults(base) == a {
		t.Fatalf("base survived %d newer populations in a %d-entry memo", faultMemoSize, faultMemoSize)
	}
}
