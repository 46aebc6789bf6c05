package gpu

import (
	"testing"

	"killi/internal/killi"
	"killi/internal/protection"
	"killi/internal/xrand"
)

// oracleVictim is the L2 victim choice as two scans made it before
// victimWay: the cache's Victim with the scheme's VictimFunc (LRUVictim
// when nil), then, whenever that landed on a valid way, a uniform replRNG
// draw over the valid enabled ways in index order, discarding the pick.
func oracleVictim(b *bankDomain, set int) int {
	w, ok := b.tags.Victim(set, b.scheme.VictimFunc())
	if !ok {
		return -1
	}
	if b.tags.Entry(set, w).Valid {
		var cand []int
		for v, e := range b.tags.Set(set) {
			if e.Valid && !e.Disabled {
				cand = append(cand, v)
			}
		}
		w = cand[b.replRNG.Intn(len(cand))]
	}
	return w
}

// TestVictimWayMatchesOracle drives victimWay and the two-scan oracle from
// equal replRNG states over random set states — invalid, valid and
// disabled ways in every DFH class with random recency stamps — under
// Killi's allocation priority, Killi's PlainLRUAllocation ablation and a
// nil VictimFunc, at 16 and 128 ways. The chosen way, the evict decision
// and the RNG state after the draw must all agree.
func TestVictimWayMatchesOracle(t *testing.T) {
	plain := killi.DefaultConfig()
	plain.PlainLRUAllocation = true
	schemes := []struct {
		name string
		f    protection.Factory
	}{
		{"killi", killiFac(killi.DefaultConfig())},
		{"killi-plain-lru", killiFac(plain)},
		{"none", fac(protection.NewNone)},
	}
	for _, ways := range []int{16, 128} {
		for _, sc := range schemes {
			cfg := DefaultConfig()
			cfg.L2Ways = ways
			cfg.L2Bytes = ways * 64 * 8 // 8 global sets
			cfg.L2Banks = 2
			sys := New(cfg, sc.f)
			b := sys.banks[0]
			sets := b.tags.Config().Sets
			rng := xrand.New(uint64(ways))
			var picked, drawn, bypassed int
			for trial := 0; trial < 3000; trial++ {
				set := rng.Intn(sets)
				pInvalid := []float64{0, 0.05, 0.5}[rng.Intn(3)]
				pDisabled := []float64{0, 0.3, 1}[rng.Intn(3)]
				for w := range b.tags.Set(set) {
					e := b.tags.Entry(set, w)
					e.Class = uint8(rng.Intn(4))
					e.LastUse = uint64(rng.Intn(64))
					e.Disabled = rng.Bernoulli(pDisabled)
					e.Valid = !rng.Bernoulli(pInvalid)
				}
				before := b.replRNG
				got := b.victimWay(set)
				gotRNG := b.replRNG
				b.replRNG = before
				want := oracleVictim(b, set)
				if got != want {
					t.Fatalf("%s/%d ways, trial %d: victimWay %d, oracle %d", sc.name, ways, trial, got, want)
				}
				if gotRNG != b.replRNG {
					t.Fatalf("%s/%d ways, trial %d: replRNG state differs after the draw", sc.name, ways, trial)
				}
				gotEvict := got >= 0 && b.tags.Entry(set, got).Valid
				wantEvict := want >= 0 && b.tags.Entry(set, want).Valid
				if gotEvict != wantEvict {
					t.Fatalf("%s/%d ways, trial %d: evict %v, oracle %v", sc.name, ways, trial, gotEvict, wantEvict)
				}
				switch {
				case got < 0:
					bypassed++
				case gotEvict:
					drawn++
				default:
					picked++
				}
			}
			if picked == 0 || drawn == 0 || bypassed == 0 {
				t.Fatalf("%s/%d ways: invalid picks %d, random draws %d, bypasses %d: a branch went unexercised",
					sc.name, ways, picked, drawn, bypassed)
			}
		}
	}
}
