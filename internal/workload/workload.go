// Package workload generates the synthetic GPU memory traces that stand in
// for the paper's ten HPC GPGPU applications.
//
// The paper names only two of its ten workloads (XSBENCH and FFT, the
// memory-bound outliers of Figures 4–5) and classifies the set into
// compute-bound (L2 MPKI < 50) and memory-bound (MPKI > 100) groups. We
// model ten DOE-PathForward-flavored proxies, each defined by its access
// pattern, footprint relative to the 2 MB L2, write mix, and
// instructions-per-access (which sets how latency-tolerant the workload
// is). What Figures 4 and 5 key on is locality structure, not instruction
// semantics, so pattern-faithful traces preserve the comparison.
package workload

import (
	"fmt"

	"killi/internal/xrand"
)

// Request is one coalesced memory access from a CU.
type Request struct {
	// Addr is a byte address.
	Addr uint64
	// Write marks a store (write-through at both cache levels).
	Write bool
	// Instrs is the number of instructions this access represents; it
	// sets issue spacing and the MPKI denominator.
	Instrs uint32
}

// Class groups workloads by the paper's Figure 5 split.
type Class int

const (
	// ComputeBound workloads have L2 MPKI below ~50.
	ComputeBound Class = iota
	// MemoryBound workloads have L2 MPKI above ~100.
	MemoryBound
)

// String names the class.
func (c Class) String() string {
	if c == MemoryBound {
		return "memory-bound"
	}
	return "compute-bound"
}

// Workload is a named trace generator.
type Workload struct {
	// Name is the proxy benchmark name.
	Name string
	// Class is the Figure 5 grouping.
	Class Class
	// Description summarizes the modeled access pattern.
	Description string
	// gen appends exactly n requests for one CU to out and returns the
	// grown slice. Generators never outgrow a capacity of n beyond
	// len(out), so callers may hand in a sub-capacity view of a larger
	// packed buffer and generation happens in place.
	gen func(cu, n int, r *xrand.Rand, out []Request) []Request
}

// rand returns the deterministic per-CU generator trace and TraceSet share.
func (w Workload) rand(cu int, seed uint64) *xrand.Rand {
	return xrand.New(seed ^ uint64(cu)*0x9e3779b97f4a7c15 ^ hashName(w.Name))
}

// trace generates n requests for one CU, deterministically from seed.
func (w Workload) trace(cu, n int, seed uint64) []Request {
	return w.gen(cu, n, w.rand(cu, seed), make([]Request, 0, n))
}

// Traces generates per-CU traces for a whole GPU.
func (w Workload) Traces(cus, nPerCU int, seed uint64) [][]Request {
	out := make([][]Request, cus)
	for cu := range out {
		out[cu] = w.trace(cu, nPerCU, seed)
	}
	return out
}

// TraceSet is the packed multi-kernel trace storage for one workload: every
// kernel's per-CU requests live in one flat contiguous buffer with
// per-(kernel, CU) views sliced into it. Compared with nested
// [][][]Request storage this is two long-lived allocations instead of
// kernels × CUs, and the replay loop walks sequential memory. A TraceSet is
// immutable after construction and shared read-only by every scheme task of
// a sweep workload.
type TraceSet struct {
	reqs  []Request
	views [][][]Request // kernel → CU → view into reqs
}

// TraceSet generates one kernel per seed (element k of seeds drives kernel
// k) for a whole GPU, bit-identical to calling Traces per seed.
func (w Workload) TraceSet(cus, nPerCU int, seeds []uint64) *TraceSet {
	t := &TraceSet{
		reqs:  make([]Request, 0, len(seeds)*cus*nPerCU),
		views: make([][][]Request, len(seeds)),
	}
	for k, seed := range seeds {
		t.views[k] = make([][]Request, cus)
		for cu := 0; cu < cus; cu++ {
			start := len(t.reqs)
			sub := w.gen(cu, nPerCU, w.rand(cu, seed), t.reqs[start:start:start+nPerCU])
			if len(sub) > nPerCU {
				panic("workload: generator outgrew its trace window")
			}
			t.reqs = t.reqs[:start+len(sub)]
			t.views[k][cu] = t.reqs[start : start+len(sub) : start+len(sub)]
		}
	}
	return t
}

// Kernels returns the number of kernels in the set.
func (t *TraceSet) Kernels() int { return len(t.views) }

// Kernel returns kernel k's per-CU traces, aliasing the packed buffer; the
// result must not be modified.
func (t *TraceSet) Kernel(k int) [][]Request { return t.views[k] }

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Memory-map bases keep each workload's data structures in disjoint
// regions.
const (
	baseA uint64 = 1 << 30
	baseB uint64 = 2 << 30
	baseC uint64 = 3 << 30
)

const lineBytes = 64

// Catalog returns the ten workloads in the order reports print them:
// compute-bound first, then memory-bound.
func Catalog() []Workload {
	return []Workload{
		lulesh(), comd(), snap(), miniamr(), nekbone(), quicksilver(),
		xsbench(), fft(), hpgmg(), pennant(),
	}
}

// ByName finds a workload by name.
func ByName(name string) (Workload, error) {
	for _, w := range Catalog() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// --- memory-bound proxies ---

// xsbench models XSBench's macroscopic cross-section lookups: uniformly
// random reads over a nuclide grid far larger than the L2, alternating
// with lookups in a hot unionized-energy index that lives in the L2. The
// index is what an undersized ECC cache disrupts: its faulty lines lose
// their checkbits to the random-grid churn and must be refetched — XSBENCH
// is one of the paper's two ECC-cache-size-sensitive workloads.
func xsbench() Workload {
	const gridBytes = 3 << 20    // unionized energy grid, 1.5× the 2 MB L2
	const indexBytes = 256 << 10 // very hot hash index
	return Workload{
		Name:        "xsbench",
		Class:       MemoryBound,
		Description: "random lookups over a hot 256 KB index + 3 MB unionized grid (1.5× the L2)",
		gen: func(cu, n int, r *xrand.Rand, out []Request) []Request {
			for len(out) < n {
				// Each lookup walks the hot index, then probes two energy
				// points in the unionized grid. The grid is all live data
				// slightly bigger than the L2, so every line the protection
				// scheme throws away is one the workload will want back —
				// the paper's ECC-cache-thrash sensitivity (Figures 4–5).
				idx := baseB + uint64(r.Intn(indexBytes/lineBytes))*lineBytes
				out = append(out, Request{Addr: idx, Instrs: 2})
				for p := 0; p < 2 && len(out) < n; p++ {
					g := baseA + uint64(r.Intn(gridBytes/lineBytes))*lineBytes
					out = append(out, Request{Addr: g, Instrs: 2})
				}
			}
			return out
		},
	}
}

// fft models in-place FFT butterfly updates: bit-reversed butterfly
// addressing is an effective scatter at cache-line granularity across eight
// concurrent CUs, over a signal slightly bigger than the L2 that every pass
// re-references, plus lookups in a very hot shared twiddle table. The
// twiddle reuse is what an undersized ECC cache disrupts — FFT is one of
// the paper's two ECC-cache-size-sensitive workloads (Figures 4–5).
func fft() Workload {
	const signalBytes = 3 << 20 // in-place working signal, 1.5× the 2 MB L2
	const twBytes = 256 << 10   // hot twiddle table
	return Workload{
		Name:        "fft",
		Class:       MemoryBound,
		Description: "butterfly updates over a live 3 MB signal + hot 256 KB twiddle table",
		gen: func(cu, n int, r *xrand.Rand, out []Request) []Request {
			sigLines := signalBytes / lineBytes
			const twLines = twBytes / lineBytes
			for len(out) < n {
				// One butterfly: twiddle factor, then read-modify-write of
				// a signal node.
				tw := baseB + uint64(r.Intn(twLines))*lineBytes
				out = append(out, Request{Addr: tw, Instrs: 2})
				if len(out) < n {
					a := baseA + uint64(r.Intn(sigLines))*lineBytes
					out = append(out, Request{Addr: a, Instrs: 3})
					if len(out) < n {
						out = append(out, Request{Addr: a, Write: true, Instrs: 2})
					}
				}
			}
			return out
		},
	}
}

// hpgmg models multigrid smoothing: long streaming sweeps across grid
// levels with almost no temporal reuse at L2 scale.
func hpgmg() Workload {
	return Workload{
		Name:        "hpgmg",
		Class:       MemoryBound,
		Description: "streaming sweeps across 32/16/8 MB multigrid levels",
		gen: func(cu, n int, r *xrand.Rand, out []Request) []Request {
			levels := []struct {
				base  uint64
				bytes uint64
			}{
				{baseA, 32 << 20},
				{baseB, 16 << 20},
				{baseC, 8 << 20},
			}
			// Each kernel smooths a fresh window of every level, switching
			// levels every 2048-line chunk (a V-cycle leg).
			var starts [3]uint64
			for i, lv := range levels {
				starts[i] = uint64(r.Intn(int(lv.bytes / lineBytes)))
			}
			level, i := 0, uint64(0)
			for len(out) < n {
				lv := levels[level]
				lvLines := lv.bytes / lineBytes
				addr := lv.base + ((starts[level]+i)%lvLines)*lineBytes
				out = append(out, Request{Addr: addr, Instrs: 8})
				if len(out) < n && i%4 == 3 {
					out = append(out, Request{Addr: addr, Write: true, Instrs: 4})
				}
				i++
				if i%2048 == 0 {
					level = (level + 1) % len(levels)
				}
			}
			return out
		},
	}
}

// pennant models unstructured-mesh gather: a sequential index stream
// driving data-dependent random reads.
func pennant() Workload {
	const meshBytes = 16 << 20
	const idxBytes = 8 << 20
	return Workload{
		Name:        "pennant",
		Class:       MemoryBound,
		Description: "sequential index stream gathering randomly from a 16 MB mesh",
		gen: func(cu, n int, r *xrand.Rand, out []Request) []Request {
			// Each kernel walks its own slice of the index stream.
			idxPos := uint64(r.Intn(int(idxBytes / lineBytes)))
			for len(out) < n {
				idxAddr := baseA + (idxPos%(idxBytes/lineBytes))*lineBytes
				out = append(out, Request{Addr: idxAddr, Instrs: 6})
				idxPos++
				if len(out) < n {
					gather := baseB + uint64(r.Intn(meshBytes/lineBytes))*lineBytes
					out = append(out, Request{Addr: gather, Instrs: 12})
				}
			}
			return out
		},
	}
}

// --- compute-bound proxies ---

// lulesh models hydrodynamics stencils: neighborhood reads over a mesh
// that mostly fits in the L2, with regular writes.
func lulesh() Workload {
	const meshBytes = 3 << 20
	return Workload{
		Name:        "lulesh",
		Class:       ComputeBound,
		Description: "27-point stencil over a 3 MB mesh with neighbor reuse",
		gen: func(cu, n int, r *xrand.Rand, out []Request) []Request {
			lines := uint64(meshBytes / lineBytes)
			pos := uint64(cu) * (lines / 8)
			for len(out) < n {
				center := pos % lines
				for _, off := range []uint64{0, 1, 64, 4096} {
					if len(out) >= n {
						break
					}
					out = append(out, Request{
						Addr:   baseA + ((center+off)%lines)*lineBytes,
						Instrs: 80,
					})
				}
				if len(out) < n {
					out = append(out, Request{Addr: baseA + center*lineBytes, Write: true, Instrs: 20})
				}
				pos++
			}
			return out
		},
	}
}

// comd models molecular dynamics with cell lists: tight reuse within a
// working set well inside the L2.
func comd() Workload {
	const cellBytes = 3 << 19 // 1.5 MB
	return Workload{
		Name:        "comd",
		Class:       ComputeBound,
		Description: "cell-list force loops over a 1.5 MB particle region",
		gen: func(cu, n int, r *xrand.Rand, out []Request) []Request {
			lines := cellBytes / lineBytes
			for len(out) < n {
				cell := r.Intn(lines - 8)
				for k := 0; k < 8 && len(out) < n; k++ {
					out = append(out, Request{
						Addr:   baseA + uint64(cell+k)*lineBytes,
						Instrs: 120,
					})
				}
				if len(out) < n {
					out = append(out, Request{Addr: baseA + uint64(cell)*lineBytes, Write: true, Instrs: 30})
				}
			}
			return out
		},
	}
}

// snap models discrete-ordinates transport sweeps: wavefront-ordered
// streaming with immediate reuse.
func snap() Workload {
	const fluxBytes = 2 << 20
	return Workload{
		Name:        "snap",
		Class:       ComputeBound,
		Description: "wavefront sweeps over a 2 MB angular-flux array",
		gen: func(cu, n int, r *xrand.Rand, out []Request) []Request {
			lines := uint64(fluxBytes / lineBytes)
			pos := uint64(cu) * (lines / 8)
			for len(out) < n {
				addr := baseA + (pos%lines)*lineBytes
				out = append(out, Request{Addr: addr, Instrs: 60})
				if len(out) < n {
					out = append(out, Request{Addr: addr, Instrs: 40}) // reuse
				}
				if len(out) < n && pos%2 == 1 {
					out = append(out, Request{Addr: addr, Write: true, Instrs: 20})
				}
				pos++
			}
			return out
		},
	}
}

// miniamr models block-structured AMR: long dwell times on small blocks.
func miniamr() Workload {
	const blockBytes = 256 << 10
	const blocks = 64
	return Workload{
		Name:        "miniamr",
		Class:       ComputeBound,
		Description: "repeated passes over 256 KB AMR blocks before moving on",
		gen: func(cu, n int, r *xrand.Rand, out []Request) []Request {
			lines := uint64(blockBytes / lineBytes)
			for len(out) < n {
				block := uint64(r.Intn(blocks))
				base := baseA + block*uint64(blockBytes)
				// Three passes over the block.
				for pass := 0; pass < 3 && len(out) < n; pass++ {
					for l := uint64(0); l < lines && len(out) < n; l += 4 {
						out = append(out, Request{Addr: base + l*lineBytes, Instrs: 70})
					}
				}
			}
			return out
		},
	}
}

// nekbone models spectral-element kernels: very hot small matrices.
func nekbone() Workload {
	const matBytes = 512 << 10
	return Workload{
		Name:        "nekbone",
		Class:       ComputeBound,
		Description: "dense small-matrix kernels over a 512 KB hot set",
		gen: func(cu, n int, r *xrand.Rand, out []Request) []Request {
			lines := matBytes / lineBytes
			for len(out) < n {
				out = append(out, Request{
					Addr:   baseA + uint64(r.Intn(lines))*lineBytes,
					Instrs: 150,
				})
			}
			return out
		},
	}
}

// quicksilver models Monte Carlo particle transport: a hot cross-section
// table with an occasional cold excursion.
func quicksilver() Workload {
	const hotBytes = 1 << 20
	const coldBytes = 8 << 20
	return Workload{
		Name:        "quicksilver",
		Class:       ComputeBound,
		Description: "90% hits in a 1 MB table, 10% random 8 MB excursions",
		gen: func(cu, n int, r *xrand.Rand, out []Request) []Request {
			for len(out) < n {
				var addr uint64
				if r.Intn(10) == 0 {
					addr = baseB + uint64(r.Intn(coldBytes/lineBytes))*lineBytes
				} else {
					addr = baseA + uint64(r.Intn(hotBytes/lineBytes))*lineBytes
				}
				out = append(out, Request{Addr: addr, Instrs: 100})
			}
			return out
		},
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
