package faultmodel

import (
	"hash/fnv"
	"math"
	"testing"

	"killi/internal/xrand"
)

// mapDigest hashes a map's whole population: every line's offset and
// every fault's bit, polarity and exact severity.
func mapDigest(fm *Map) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, o := range fm.offsets {
		put(uint64(o))
	}
	for _, f := range fm.faults {
		put(uint64(f.Bit))
		put(uint64(f.StuckAt))
		put(math.Float64bits(f.Severity))
	}
	return h.Sum64()
}

// TestNewMapDigestPinned pins NewMap's sampled populations — a 32K-line,
// 512-bit cache at several (seed, reference voltage, frequency) points from
// the near-fault-free to the high-failure regime — so a change to the
// sampler that moves a single fault, or draws the stream differently,
// shows here before it moves any golden.
func TestNewMapDigestPinned(t *testing.T) {
	for _, c := range []struct {
		seed    uint64
		v, freq float64
		faults  int
		digest  uint64
	}{
		{1, 0.625, 1.0, 1299, 0xe8485781f51475f3},
		{42, 0.55, 1.0, 502178, 0x7f56b2c872c6cadb},
		{7, 0.6, 1.3, 46188, 0xb4f9815a46a89d1d},
		{9, 0.65, 1.0, 112, 0x9359b7961cf65209},
		{3, 0.675, 0.8, 2, 0x495d93af88089cae},
	} {
		fm := NewMap(xrand.New(c.seed), Default(), 32768, 512, c.v, c.freq)
		if n, d := len(fm.faults), mapDigest(fm); n != c.faults || d != c.digest {
			t.Errorf("NewMap(seed %d, %g V, %g GHz): %d faults, digest %#x; pinned %d, %#x",
				c.seed, c.v, c.freq, n, d, c.faults, c.digest)
		}
	}
}
