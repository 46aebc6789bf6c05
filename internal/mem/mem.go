// Package mem models the main-memory backend of the simulated GPU: a fixed
// access latency plus a bandwidth limit expressed as a minimum gap between
// request completions.
//
// Killi's performance story plays out against this backend: error-induced
// cache misses and ECC-cache-contention misses each cost a DRAM round trip,
// and the bandwidth queue makes memory-bound workloads feel contention
// super-linearly — which is why XSBENCH/FFT-like traces show the largest
// degradation at the smallest ECC cache size (Figures 4–5).
package mem

// Config describes the DRAM backend.
type Config struct {
	// LatencyCycles is the unloaded access latency in core cycles.
	LatencyCycles uint64
	// GapCycles is the minimum spacing between completions (the inverse
	// of peak bandwidth in lines per cycle).
	GapCycles uint64
}

// DefaultConfig gives a 1 GHz-core-relative DRAM: 300-cycle latency,
// one 64-byte line per 4 cycles peak.
func DefaultConfig() Config {
	return Config{LatencyCycles: 300, GapCycles: 4}
}

// Memory serializes accesses through a bandwidth queue. Reads and writes
// drain through separate channels: GPU memory controllers buffer
// write-through traffic and prioritize demand reads, so a burst of stores
// must not serialize the read path. The zero value is unusable; construct
// with New.
type Memory struct {
	cfg           Config
	nextFree      uint64
	writeNextFree uint64
	accesses      uint64
}

// New returns a memory with the given configuration.
func New(cfg Config) *Memory {
	if cfg.LatencyCycles == 0 {
		cfg = DefaultConfig()
	}
	return &Memory{cfg: cfg}
}

// Access models one line transfer starting at cycle now and returns its
// completion cycle: the unloaded latency plus any queueing delay imposed by
// the bandwidth limit.
func (m *Memory) Access(now uint64) (done uint64) {
	start := now
	if m.nextFree > start {
		start = m.nextFree
	}
	m.nextFree = start + m.cfg.GapCycles
	m.accesses++
	return start + m.cfg.LatencyCycles
}

// AccessWrite models a posted (fire-and-forget) write-through store: it
// occupies the write channel and returns the drain cycle, which nothing on
// the read path waits for.
func (m *Memory) AccessWrite(now uint64) (done uint64) {
	start := now
	if m.writeNextFree > start {
		start = m.writeNextFree
	}
	m.writeNextFree = start + m.cfg.GapCycles
	return start + m.cfg.LatencyCycles
}

// Accesses returns the total read access count (the DRAM demand-traffic
// statistic).
func (m *Memory) Accesses() uint64 { return m.accesses }
