// Package gpu is the cycle-based GPU memory-hierarchy simulator the Killi
// evaluation runs on.
//
// The paper evaluates Killi on gem5's GCN3 GPU model; we substitute a
// from-scratch model of the parts that matter to the result: 8 compute
// units issuing coalesced memory requests through per-CU L1 caches into a
// banked, write-through, 16-way 2 MB shared L2 whose data array runs at low
// voltage, backed by per-bank DRAM channel queues. Killi's performance
// effects — ECC-cache contention evictions, error-induced misses, disabled
// lines — are all L2-level phenomena, so an address-stream-driven hierarchy
// reproduces them; the compute pipeline only sets request arrival rates,
// which the workload's instructions-per-access figure models.
//
// Timing follows the paper's Table 3: 2-cycle L2 tag, 2-cycle L2 data,
// 1-cycle SECDED/parity; the ECC cache's 1+1 cycle access is hidden under
// the L2 data access and adds no hit latency. Every L2-side response pays
// one response-network cycle back to the CU.
//
// The machine is decomposed into engine domains — one per CU front-end
// (with its L1) and one per address-interleaved L2 bank (tags, data slice,
// per-bank ECC scheme instance, DRAM channel queue, stat counters) — that
// communicate only through timed engine messages with at least one cycle
// of latency. That structure lets engine.Sharded fire independent banks'
// events in parallel while keeping every statistic and observer stream
// bit-identical to the serial schedule at any shard count (see
// System.SetShards). The simulation hot paths remain allocation-free in
// the steady state: counter updates go through pre-interned stats handles
// and events are fixed-size values inside the engine's per-shard heaps.
package gpu

import (
	"fmt"
	"math/bits"
	"sync"

	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/engine"
	"killi/internal/faultmodel"
	"killi/internal/mem"
	"killi/internal/obs"
	"killi/internal/protection"
	"killi/internal/sram"
	"killi/internal/stats"
	"killi/internal/workload"
	"killi/internal/xrand"
)

// Pre-interned counter handles: the per-event increment is a slice index,
// not a string-keyed map operation. Names are unchanged from the original
// string-keyed API.
var (
	cSchemeInvalidations = stats.Intern("l2.scheme_invalidations")
	cVoltageTransitions  = stats.Intern("l2.voltage_transitions")
	cTransitionStall     = stats.Intern("l2.transition_stall_cycles")
	cL1Writes            = stats.Intern("l1.writes")
	cL1Reads             = stats.Intern("l1.reads")
	cL1Hits              = stats.Intern("l1.hits")
	cL2Accesses          = stats.Intern("l2.accesses")
	cTagParityMisses     = stats.Intern("l2.tag_parity_misses")
	cReadMisses          = stats.Intern("l2.read_misses")
	cReadHits            = stats.Intern("l2.read_hits")
	cSDC                 = stats.Intern("l2.silent_data_corruption")
	cErrorMisses         = stats.Intern("l2.error_misses")
	cSoftErrors          = stats.Intern("l2.soft_errors_injected")
	cTransientStrikes    = stats.Intern("l2.transient_strikes")
	cEvictions           = stats.Intern("l2.evictions")
	cBypassFills         = stats.Intern("l2.bypass_fills")
	cWriteUpdates        = stats.Intern("l2.write_updates")
	cVersionPrunes       = stats.Intern("l2.version_prunes")
)

// Config is the simulated GPU configuration (defaults mirror Table 3).
type Config struct {
	CUs              int // number of compute units
	L1Bytes          int // per-CU L1 size
	L1Ways           int
	L2Bytes          int
	L2Ways           int
	L2Banks          int
	LineBytes        int
	L2TagLat         uint64 // cycles
	L2DataLat        uint64 // cycles
	ECCLat           uint64 // SECDED/parity latency, cycles
	L1Lat            uint64 // L1 hit latency, cycles (>= 1: the CU-to-bank lookahead)
	WindowPerCU      int    // outstanding-request window per CU
	IssueIPC         float64
	Mem              mem.Config
	Voltage          float64 // normalized L2 data-array voltage
	FreqGHz          float64
	FaultModel       faultmodel.Model
	FaultSeed        uint64
	RefVoltage       float64 // lowest voltage the fault map must serve (0 = Voltage)
	SoftErrorPerRead float64 // probability of one transient flip per L2 read
	// TagSoftErrorPerLookup is the probability that an L2 lookup hits a
	// transient tag-bit flip. The tag array runs at nominal voltage and
	// carries parity (§4.1), so the flip is always detected; the entry is
	// invalidated and the access becomes a safe miss.
	TagSoftErrorPerLookup float64
	// Classes layers the faultmodel taxonomy over the sampled fault
	// population: intermittent and aging faults manifest per fault epoch,
	// transient strikes arrive as a Poisson rate per cell-cycle. The zero
	// spec (the default) is the paper's pure-persistent model, bit-identical
	// to a configuration without the field.
	Classes faultmodel.ClassSpec
	// ClassEpochCycles is the fault-epoch length for intermittent/aging
	// activation and the transient-strike tick (0 = DefaultEpochCycles).
	ClassEpochCycles uint64
}

// DefaultConfig returns the paper's Table 3 GPU configuration at nominal
// voltage.
func DefaultConfig() Config {
	return Config{
		CUs:         8,
		L1Bytes:     16 << 10,
		L1Ways:      4,
		L2Bytes:     2 << 20,
		L2Ways:      16,
		L2Banks:     16,
		LineBytes:   64,
		L2TagLat:    2,
		L2DataLat:   2,
		ECCLat:      1,
		L1Lat:       1,
		WindowPerCU: 32,
		IssueIPC:    4,
		Mem:         mem.DefaultConfig(),
		Voltage:     1.0,
		FreqGHz:     1.0,
		FaultModel:  faultmodel.Default(),
		FaultSeed:   1,
	}
}

// Result summarizes a simulation run.
type Result struct {
	Cycles        uint64
	Instructions  uint64
	L2Misses      uint64
	L2Accesses    uint64
	MemAccesses   uint64
	DisabledLines int
	// SDC counts reads this run that delivered data differing from ground
	// truth without the scheme noticing (the l2.silent_data_corruption
	// delta). TransientStrikes counts fault-class strikes injected this run.
	SDC              uint64
	TransientStrikes uint64
	// Misclass is the DFH-vs-ground-truth tally at the end of the run,
	// valid when HasMisclass is set (the scheme exposes DFH codes; Run
	// takes the census, RunKernel does not).
	Misclass    Misclass
	HasMisclass bool
	// Counters is the System's cumulative counter set. From Run it is the
	// System's own set, not a copy: it aliases the System, so a held Result
	// keeps the whole simulated machine alive and a released System reuses
	// it. The experiments package's runs return a detached copy.
	Counters *stats.Counters
	// Sched is the engine's deterministic scheduling ledger for this run
	// (barrier rounds, fired events/timestamps, cross-shard traffic). It is
	// a pure function of the simulation and the shard count — not of the
	// host — so benchmarks can gate on it even on a single-core machine. It
	// is deliberately excluded from result digests: scheduling is not
	// simulation semantics.
	Sched engine.RunStats
}

// MPKI returns the run's L2 misses per kilo-instruction.
func (r Result) MPKI() float64 { return stats.MPKI(r.L2Misses, r.Instructions) }

// Event kinds. Each kind is interpreted by one domain type's sink.
const (
	// CU domain events.
	ckRead       uint8 = iota // a trace read reaches the CU's L1 (a = addr)
	ckWrite                   // a trace write reaches the CU's L1 (a = addr)
	ckRetire                  // a request retires
	ckRetireFill              // an L2/memory response arrives: fill L1, retire (a = addr)
	// Bank domain events.
	bkRead  // an L1 read miss arrives at the bank (a = addr, b = CU index)
	bkStore // a write-through store arrives (a = addr, b = 1 if the store hit the CU's L1)
	bkFill  // the bank's DRAM channel delivers a line (a = addr, b = CU index)
)

// System is one simulated GPU with an attached protection scheme (one
// instance per L2 bank, built by the factory). Construct with New.
type System struct {
	cfg  Config
	geom geometry
	eng  *engine.Sharded

	cus   []*cuDomain
	banks []*bankDomain

	// Address-interleave geometry. effBanks is the usable bank count
	// (L2Banks clamped to the set count); globalSets the whole-L2 set
	// count. pow2 fast paths mirror cache.Cache's address slicing.
	effBanks   int
	globalSets int
	lineShift  uint
	pow2Sets   bool
	setMask    uint64
	setShift   uint
	pow2Banks  bool
	bankMask   uint64
	bankShift  uint

	// ctr is the merged, externally visible counter set (Result.Counters
	// points here); it is rebuilt from sysCtr and every domain's counters
	// at Run boundaries and observer samples. sysCtr holds between-run
	// system operations (voltage transitions, aging injection).
	ctr    stats.Counters
	sysCtr stats.Counters

	// stallUntil gates request issue after a voltage transition whose
	// scheme requires an offline MBIST pass. Written only between Runs.
	stallUntil uint64

	// classed is set when cfg.Classes is non-zero; classEpoch is the fault
	// epoch length in cycles (always valid, defaulted in NewShared).
	classed    bool
	classEpoch uint64

	// observer is the attached observability sink (nil = off, the
	// default; see SetObserver in obs.go).
	observer   obs.Observer
	obsEpoch   uint64
	sampler    *obsSampler
	obsScratch []bufferedObsEvent

	// codes is Misclassification's per-bank DFH code buffer, allocated on
	// its first census.
	codes []uint8
}

// geometry is the part of a Config that sizes a System's buffers. A
// released System is recycled only by a NewShared of equal geometry.
type geometry struct {
	cus, l1Sets, l1Ways, lineBytes int
	globalSets, effBanks, l2Ways   int
}

// geometryOf validates cfg's shape and returns its geometry.
func geometryOf(cfg Config) geometry {
	if cfg.CUs <= 0 || cfg.L2Banks <= 0 || cfg.WindowPerCU <= 0 {
		panic("gpu: invalid configuration")
	}
	if cfg.L1Lat < 1 {
		panic("gpu: L1Lat must be >= 1 (it is the CU-to-bank message latency)")
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("gpu: LineBytes must be a positive power of two")
	}
	globalSets := cfg.L2Bytes / cfg.LineBytes / cfg.L2Ways
	effBanks := cfg.L2Banks
	if effBanks > globalSets {
		effBanks = globalSets
	}
	if globalSets%effBanks != 0 {
		panic(fmt.Sprintf("gpu: %d L2 sets not divisible across %d banks", globalSets, effBanks))
	}
	return geometry{
		cus: cfg.CUs, l1Sets: cfg.L1Bytes / cfg.LineBytes / cfg.L1Ways, l1Ways: cfg.L1Ways,
		lineBytes: cfg.LineBytes, globalSets: globalSets, effBanks: effBanks, l2Ways: cfg.L2Ways,
	}
}

// cuDomain is one compute unit front-end: trace issue window plus its
// private L1. All its state is touched only by its own engine domain.
type cuDomain struct {
	sys *System
	d   *engine.Domain
	id  int
	l1  *cache.Cache
	ctr stats.Counters

	trace     []workload.Request
	idx       int
	inflight  int
	lastIssue uint64
	started   bool
	instrs    uint64 // this Run
	// instrsTotal accumulates across Runs for the epoch sampler.
	instrsTotal uint64
}

// bankDomain is one address-interleaved L2 bank: its slice of the tag and
// data arrays, its own protection-scheme instance, line-state table, DRAM
// channel queue, RNG streams, and stat counters. It implements
// protection.Host for its scheme. All state is domain-private.
type bankDomain struct {
	sys  *System
	d    *engine.Domain
	bank int

	tags   *cache.Cache // localSets x ways, addressed by (localSet, global tag)
	data   *sram.Array  // strided view of the shared fault map
	scheme protection.Scheme
	mem    mem.Memory // this bank's DRAM channel queue

	// lineState packs, per line address served by this bank, the write
	// version together with the count of in-flight fetches; see the
	// monolithic predecessor's commentary in linetable.go. Versions are
	// observable while the line is resident in this bank or being fetched.
	lineState         lineTable
	versionsHighWater int
	// readBuf holds the line a read hit is decoding: the scheme corrects
	// it in place through a pointer, and a bank field keeps that pointer
	// from moving a local to the heap on every hit.
	readBuf bitvec.Line

	free uint64 // bank pipeline busy-until cycle

	ctr     stats.Counters
	softRNG xrand.Rand
	replRNG xrand.Rand
	// strikeRNG draws transient fault-class strikes; only the strike
	// ticker, armed by a transient rate, reads it.
	strikeRNG  xrand.Rand
	wayScratch []int

	// obsBuf buffers scheme emissions for deterministic cross-bank
	// ordering; nil while no observer is attached (see obs.go).
	obsBuf *bankObserver
}

// SharedFaults bundles a persistent fault map with its voltage-resolved
// view. Both halves are immutable, so one SharedFaults built by
// BuildSharedFaults can back every System of a sweep whose tasks run at the
// same (FaultSeed, model, line count, reference voltage, frequency,
// operating voltage) — the sweep builds the 32K-line population once
// instead of once per simulation.
type SharedFaults struct {
	Map      *faultmodel.Map
	Resolved *faultmodel.Resolved
}

// BuildSharedFaults samples the fault population a System with this
// configuration would build in New, pre-resolved at cfg.Voltage. The result
// is bit-identical to the per-System map: same seed, same sampling order.
func BuildSharedFaults(cfg Config) *SharedFaults {
	return buildFaults(faultKeyOf(cfg))
}

// faultKey is everything of a Config that BuildSharedFaults reads: the
// population is a pure function of it.
type faultKey struct {
	seed                uint64
	model               faultmodel.Model
	lines               int
	refV, volt, freqGHz float64
}

func faultKeyOf(cfg Config) faultKey {
	refV := cfg.RefVoltage
	if refV == 0 {
		refV = cfg.Voltage
	}
	// Same rounding as the tag-array geometry (sets x ways), so the map is
	// bit-identical to the one a private System would sample. The map is
	// indexed by whole-L2 line ID; banks view it through strided slices.
	lines := (cfg.L2Bytes / cfg.LineBytes / cfg.L2Ways) * cfg.L2Ways
	return faultKey{cfg.FaultSeed, cfg.FaultModel, lines, refV, cfg.Voltage, cfg.FreqGHz}
}

func buildFaults(k faultKey) *SharedFaults {
	fm := faultmodel.NewMap(xrand.New(k.seed), k.model, k.lines, bitvec.LineBits, k.refV, k.freqGHz)
	return &SharedFaults{Map: fm, Resolved: fm.Resolve(k.volt)}
}

// faultMemoSize bounds the private-map memo: a handful of operating points
// covers a daemon's or a test binary's working set.
const faultMemoSize = 4

// faultMemo holds the last faultMemoSize private fault populations,
// replaced round-robin. A SharedFaults is immutable, so every System built
// at the same key can read one. Builds run under the lock, so concurrent
// first runs at one key build it once.
var faultMemo struct {
	sync.Mutex
	keys [faultMemoSize]faultKey
	vals [faultMemoSize]*SharedFaults
	next int
}

// privateFaults returns the fault population NewShared(cfg, f, nil) runs
// over: BuildSharedFaults(cfg), memoized. Campaigns' per-die maps come in
// through NewShared's shared argument and never reach the memo.
func privateFaults(cfg Config) *SharedFaults {
	k := faultKeyOf(cfg)
	faultMemo.Lock()
	defer faultMemo.Unlock()
	for i, v := range faultMemo.vals {
		if v != nil && faultMemo.keys[i] == k {
			return v
		}
	}
	v := buildFaults(k)
	i := faultMemo.next
	faultMemo.keys[i], faultMemo.vals[i] = k, v
	faultMemo.next = (i + 1) % faultMemoSize
	return v
}

// New builds a system with the given configuration; newScheme constructs
// one protection-scheme instance per L2 bank, each attached and Reset at
// the configured voltage.
func New(cfg Config, newScheme protection.Factory) *System {
	return NewShared(cfg, newScheme, nil)
}

// NewShared builds a system over a pre-built fault population (nil falls
// back to the private map New samples, memoized per (FaultSeed,
// FaultModel, line count, RefVoltage, Voltage, FreqGHz) in a small fixed
// table). The shared map and resolved view are read-only; the System
// never mutates them, so one SharedFaults can serve concurrent
// simulations. The view's voltage must match cfg.Voltage and the map must
// cover the L2. When a System of the same geometry was released, NewShared
// re-initializes it in place instead of allocating (see Release).
func NewShared(cfg Config, newScheme protection.Factory, shared *SharedFaults) *System {
	geom := geometryOf(cfg)
	if shared == nil {
		shared = privateFaults(cfg)
	}
	totalLines := geom.globalSets * cfg.L2Ways
	if shared.Map.Lines() < totalLines {
		panic(fmt.Sprintf("gpu: shared fault map covers %d lines, L2 has %d",
			shared.Map.Lines(), totalLines))
	}
	if shared.Resolved.Voltage() != cfg.Voltage {
		panic(fmt.Sprintf("gpu: shared fault view resolved at %v, system runs at %v",
			shared.Resolved.Voltage(), cfg.Voltage))
	}
	s := released.take(geom)
	if s == nil {
		s = &System{geom: geom}
	}
	s.init(cfg, newScheme, shared)
	return s
}

// released holds the Systems handed back by Release for NewShared to
// recycle.
var released freeList

// freeList is a list of idle Systems, all of one geometry: putting a
// System of another shape drops the idle ones, so the list never holds
// more than the peak number of concurrent simulations of the shape in use.
type freeList struct {
	sync.Mutex
	idle []*System
}

// take pops the most recently released System of geometry g, or returns
// nil.
func (r *freeList) take(g geometry) *System {
	r.Lock()
	defer r.Unlock()
	n := len(r.idle)
	if n == 0 || r.idle[n-1].geom != g {
		return nil
	}
	s := r.idle[n-1]
	r.idle[n-1] = nil
	r.idle = r.idle[:n-1]
	return s
}

// Release hands s back for reuse: a later New or NewShared with the same
// geometry re-initializes it in place — payloads, flip overlays, tags,
// L1s, line tables, engine queues and counters cleared, DRAM queues and
// RNGs re-seeded, schemes built fresh from the factory — and it behaves
// exactly as a freshly allocated System. After Release the caller must
// not use s or anything it handed out (a Run Result's Counters, Stats),
// and must not release it again. Releasing is optional: an unreleased
// System is garbage-collected as usual. A System whose Run did not
// complete (a panic unwound it) is not recycled.
func (s *System) Release() {
	if s.eng.Pending() != 0 {
		return
	}
	// Drop what the System only borrowed, so an idle one pins no traces,
	// schemes or observer.
	for _, c := range s.cus {
		c.trace = nil
	}
	for _, b := range s.banks {
		b.scheme, b.obsBuf = nil, nil
	}
	s.observer, s.sampler, s.obsScratch = nil, nil, nil
	released.put(s)
}

func (r *freeList) put(s *System) {
	r.Lock()
	defer r.Unlock()
	if len(r.idle) > 0 && r.idle[0].geom != s.geom {
		clear(r.idle)
		r.idle = r.idle[:0]
	}
	r.idle = append(r.idle, s)
}

// init makes s the machine cfg describes over shared. A System holding
// only its geometry first allocates its buffers; a released one already
// has them. Either way the buffers are then cleared in place and every
// other field is rebuilt from scratch, so a fresh and a recycled System
// run through the same reset.
func (s *System) init(cfg Config, newScheme protection.Factory, shared *SharedFaults) {
	g := s.geom
	*s = System{
		cfg:        cfg,
		geom:       g,
		eng:        s.eng,
		cus:        s.cus,
		banks:      s.banks,
		codes:      s.codes,
		effBanks:   g.effBanks,
		globalSets: g.globalSets,
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}
	if g.globalSets&(g.globalSets-1) == 0 {
		s.pow2Sets = true
		s.setMask = uint64(g.globalSets - 1)
		s.setShift = uint(bits.TrailingZeros(uint(g.globalSets)))
	}
	if g.effBanks&(g.effBanks-1) == 0 {
		s.pow2Banks = true
		s.bankMask = uint64(g.effBanks - 1)
		s.bankShift = uint(bits.TrailingZeros(uint(g.effBanks)))
	}

	localSets := g.globalSets / g.effBanks
	bankLines := localSets * g.l2Ways
	if s.eng == nil {
		s.eng = engine.NewSharded(g.cus + g.effBanks)
		s.cus = make([]*cuDomain, g.cus)
		for i := range s.cus {
			s.cus[i] = &cuDomain{l1: cache.New(cache.Config{Sets: g.l1Sets, Ways: g.l1Ways, LineBytes: g.lineBytes})}
		}
		s.banks = make([]*bankDomain, g.effBanks)
		for i := range s.banks {
			s.banks[i] = &bankDomain{
				tags: cache.New(cache.Config{Sets: localSets, Ways: g.l2Ways, LineBytes: g.lineBytes}),
				data: sram.NewResolvedView(bankLines, shared.Map, shared.Resolved,
					g.l2Ways, g.effBanks, i),
				wayScratch: make([]int, g.l2Ways),
			}
		}
	}
	s.eng.Reset()
	for _, c := range s.cus {
		c.l1.Reset()
	}
	for _, b := range s.banks {
		b.tags.Reset()
		b.data.Reset(shared.Map, shared.Resolved)
		b.lineState.reset()
	}

	for i, c := range s.cus {
		*c = cuDomain{sys: s, d: s.eng.Domain(i), id: i, l1: c.l1, ctr: c.ctr}
		c.ctr.Reset()
		c.d.Bind(c)
	}
	for i, b := range s.banks {
		*b = bankDomain{
			sys:       s,
			d:         s.eng.Domain(cfg.CUs + i),
			bank:      i,
			tags:      b.tags,
			data:      b.data,
			lineState: b.lineState,
			ctr:       b.ctr,
			// Each bank owns a DRAM channel queue; scaling the completion
			// gap by the bank count keeps whole-GPU peak bandwidth equal
			// to the configured mem.Config.
			mem: *mem.New(mem.Config{
				LatencyCycles: orDefault(cfg.Mem).LatencyCycles,
				GapCycles:     orDefault(cfg.Mem).GapCycles * uint64(g.effBanks),
			}),
			versionsHighWater: 4 * bankLines,
			wayScratch:        b.wayScratch,
		}
		b.ctr.Reset()
		b.softRNG.Seed(cfg.FaultSeed ^ 0x5eed50f7 ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		b.replRNG.Seed(cfg.FaultSeed ^ 0xbe91ace5eed ^ (uint64(i)+1)*0xda942042e4dd58b5)
		b.strikeRNG.Seed(cfg.FaultSeed ^ 0x57a1c3b0175eed ^ (uint64(i)+1)*0xd6e8feb86659fd93)
		b.d.Bind(b)
	}
	for _, b := range s.banks {
		b.scheme = newScheme()
		b.scheme.Attach(b)
		b.scheme.Reset(cfg.Voltage)
	}

	s.classEpoch = cfg.ClassEpochCycles
	if s.classEpoch == 0 {
		s.classEpoch = DefaultEpochCycles
	}
	if !cfg.Classes.IsZero() {
		s.classed = true
		classSeed := faultmodel.ClassSeed(cfg.FaultSeed)
		for _, b := range s.banks {
			b.data.SetFaultClasses(cfg.Classes, classSeed)
		}
		if cfg.Classes.TransientRate > 0 {
			// Slot 1: the observer pacer owns slot 0 (obs.go). The ticker
			// fires with every shard parked, so the handler may touch all
			// banks; its fire-set is a pure function of the event timeline,
			// never of the shard count.
			s.eng.SetTicker(1, s.classEpoch, s.onStrikeTick)
		}
	}

	// Declare the latency topology so the engine can derive real per-shard
	// lookahead instead of assuming the worst-case one-cycle floor. The
	// graph is bipartite: CUs message banks (reads/stores) no sooner than
	// the L1 latency, banks message CUs (responses) no sooner than the
	// fastest response path — a hit (tag+data+ECC) or, for configurations
	// with extreme pipeline latencies, a miss (tag+DRAM) — plus the one
	// cycle every response spends in delivery. CUs never message CUs and
	// banks never message banks, which the engine exploits: those shard
	// pairs constrain each other only through round trips.
	resp := cfg.L2TagLat + cfg.L2DataLat + cfg.ECCLat
	if miss := cfg.L2TagLat + orDefault(cfg.Mem).LatencyCycles; miss < resp {
		resp = miss
	}
	resp++
	for ci := 0; ci < cfg.CUs; ci++ {
		for bi := 0; bi < g.effBanks; bi++ {
			s.eng.DeclareEdge(ci, cfg.CUs+bi, cfg.L1Lat)
			s.eng.DeclareEdge(cfg.CUs+bi, ci, resp)
		}
	}
}

func orDefault(c mem.Config) mem.Config {
	if c.LatencyCycles == 0 {
		return mem.DefaultConfig()
	}
	return c
}

// --- geometry ---

// split decomposes an address into its owning bank, the bank-local set,
// and the global tag (which uniquely identifies the address within that
// (bank, local set) pair).
func (s *System) split(addr uint64) (bank, localSet int, tag uint64) {
	line := addr >> s.lineShift
	var gset uint64
	if s.pow2Sets {
		gset = line & s.setMask
		tag = line >> s.setShift
	} else {
		gset = line % uint64(s.globalSets)
		tag = line / uint64(s.globalSets)
	}
	if s.pow2Banks {
		bank = int(gset & s.bankMask)
		localSet = int(gset >> s.bankShift)
	} else {
		bank = int(gset % uint64(s.effBanks))
		localSet = int(gset / uint64(s.effBanks))
	}
	return bank, localSet, tag
}

// globalLineID maps a bank-local dense line ID to the whole-L2 line ID
// (the index space of fault maps and observer transition events).
func (b *bankDomain) globalLineID(localID int) int {
	ways := b.sys.cfg.L2Ways
	localSet := localID / ways
	way := localID % ways
	return (localSet*b.sys.effBanks+b.bank)*ways + way
}

// --- shard control ---

// SetShards selects how many engine shards (worker goroutines) the next
// Run uses. Results are bit-identical at every shard count — the engine's
// lookahead barrier fires each domain's events in canonical order
// regardless of grouping — so the knob trades only wall-clock. K = 1 (the
// default) is the serial fast path. Must be called between Runs.
//
// For K >= 2 the CUs and the banks are placed on disjoint shard sets
// (roughly half each, clamped to the population sizes). The latency graph
// is bipartite — CUs only message banks and vice versa — so keeping the
// two populations apart means every shard pair is connected only by the
// declared CU→bank / bank→CU floors (or only by round trips through
// them), which is what lets the engine coalesce many cycles into each
// barrier round. Placement is a pure scheduling choice: it never affects
// results.
func (s *System) SetShards(k int) {
	if k < 1 {
		k = 1
	}
	n := s.cfg.CUs + s.effBanks
	if k > n {
		k = n
	}
	if k == 1 {
		s.eng.SetShards(1)
		return
	}
	kc := k / 2
	if kc > s.cfg.CUs {
		kc = s.cfg.CUs
	}
	kb := k - kc
	if kb > s.effBanks {
		kb = s.effBanks
		kc = k - kb
	}
	cus := s.cfg.CUs
	s.eng.AssignShards(k, func(dom int) int {
		if dom < cus {
			return dom % kc
		}
		return kc + (dom-cus)%kb
	})
}

// --- protection.Host implementation (per bank) ---

// Tags implements protection.Host: the bank's slice of the L2 tag array.
func (b *bankDomain) Tags() *cache.Cache { return b.tags }

// Data implements protection.Host: the bank's slice of the low-voltage
// data array.
func (b *bankDomain) Data() *sram.Array { return b.data }

// SchemeInvalidate implements protection.Host.
func (b *bankDomain) SchemeInvalidate(set, way int) {
	if b.tags.Entry(set, way).Valid {
		b.ctr.IncC(cSchemeInvalidations)
		b.tags.Invalidate(set, way)
	}
}

// Stats implements protection.Host: the bank's private counter set, merged
// into the System totals at Run boundaries.
func (b *bankDomain) Stats() *stats.Counters { return &b.ctr }

// Now implements protection.Host: the bank's current cycle.
func (b *bankDomain) Now() uint64 { return b.d.Now() }

// --- system-level operations (between Runs) ---

// SetVoltage transitions the L2 data array to a new operating point
// between kernels: active persistent faults are recomputed, every bank
// scheme's fault knowledge is reset, and the cache stalls for stallCycles
// — the offline MBIST pre-characterization pass that pre-trained schemes
// need at every transition, and that Killi's runtime classification makes
// zero (the paper's headline deployment argument).
func (s *System) SetVoltage(vNorm float64, stallCycles uint64) {
	s.cfg.Voltage = vNorm
	for _, b := range s.banks {
		b.data.SetVoltage(vNorm)
		b.scheme.Reset(vNorm)
	}
	s.stallUntil = s.eng.Now() + stallCycles
	s.sysCtr.IncC(cVoltageTransitions)
	s.sysCtr.AddC(cTransitionStall, stallCycles)
}

// Voltage returns the L2 data array's current normalized voltage.
func (s *System) Voltage() float64 { return s.cfg.Voltage }

// Stats merges the per-domain counter sets and returns the system's
// cumulative counters. Call only between Runs.
func (s *System) Stats() *stats.Counters {
	s.mergeCounters()
	return &s.ctr
}

// L2Lines returns the total L2 line count across banks.
func (s *System) L2Lines() int { return s.globalSets * s.cfg.L2Ways }

// DisabledLines returns the current disabled-line count across banks.
func (s *System) DisabledLines() int {
	n := 0
	for _, b := range s.banks {
		n += b.tags.DisabledLines()
	}
	return n
}

// ECCStats sums ECC-cache occupancy and capacity across the per-bank
// scheme instances; ok reports whether the scheme exposes an ECC cache at
// all (Killi does, the baselines do not).
func (s *System) ECCStats() (occupancy, entries int, ok bool) {
	for _, b := range s.banks {
		p, is := b.scheme.(eccProber)
		if !is {
			return 0, 0, false
		}
		occupancy += p.ECCOccupancy()
		entries += p.ECCEntries()
	}
	return occupancy, entries, true
}

// onStrikeTick is the slot-1 engine ticker armed when the fault-class spec
// has a transient rate: at each fault-epoch boundary it draws this epoch's
// strike count per bank from the bank's private Poisson stream (banks in
// index order, so the draw order is canonical) and flips stored bits.
// Strikes flip stored cells and are erased by the next write — the same
// mechanism as SoftErrorPerRead, but time-driven rather than access-driven,
// so cold resident lines accumulate flips.
func (s *System) onStrikeTick(boundary uint64) {
	for _, b := range s.banks {
		cells := float64(b.data.Lines()) * float64(bitvec.LineBits)
		n := b.strikeRNG.Poisson(s.cfg.Classes.TransientRate * cells * float64(s.classEpoch))
		for j := 0; j < n; j++ {
			b.data.InjectSoftError(b.strikeRNG.Intn(b.data.Lines()), b.strikeRNG.Intn(bitvec.LineBits))
		}
		if n > 0 {
			b.ctr.AddC(cTransientStrikes, uint64(n))
		}
	}
}

// dfhProber is implemented by classifier schemes that expose their per-line
// DFH state (killi.Scheme does): DFHCodes fills codes[id] for every
// bank-local line ID, one call per bank. Codes follow the paper's Table 1
// two-bit encoding: 0 = stable/0-fault, 1 = initial, 2 = stable/1-fault,
// 3 = disabled. The interface lives here so gpu needs no import of the
// scheme package.
type dfhProber interface{ DFHCodes(codes []uint8) }

// scrubber is implemented by schemes with an idle-cycle disabled-line
// scrubber (killi's footnote-7 scrubber).
type scrubber interface{ Scrub() int }

// Misclass tallies the DFH classifier's state against fault-map ground
// truth. The ground truth (CapableFaultCount) is a simulator-only port:
// hardware cannot see dormant intermittent faults, which is precisely why
// the paper's runtime classification can misclassify them — this oracle
// measures how often.
type Misclass struct {
	Lines        int // lines inspected (all L2 lines)
	TrueFaulty   int // ground truth: lines with >= 1 capable fault
	Disabled     int // lines the classifier has disabled
	Initial      int // lines still unclassified (neither false-* applies)
	FalseDisable int // disabled although SECDED could serve them (< 2 capable faults)
	FalseTrust   int // trusted at a protection level below the capable fault count
}

// misclassification compares every line's DFH state against fault-map
// ground truth at the current fault epoch; ok reports whether the attached
// scheme exposes DFH codes at all. A Stable0 line with any capable fault,
// or a Stable1 line with two or more, counts as false trust (an SDC
// window); a Disabled line with fewer than two counts as false disable
// (lost capacity). Call only between Runs.
func (s *System) misclassification() (Misclass, bool) {
	var m Misclass
	if _, ok := s.banks[0].scheme.(dfhProber); !ok {
		return m, false
	}
	if s.codes == nil {
		s.codes = make([]uint8, s.banks[0].data.Lines())
	}
	epoch := s.eng.Now() / s.classEpoch
	for _, b := range s.banks {
		if s.classed {
			b.data.SetFaultEpoch(epoch)
		}
		b.scheme.(dfhProber).DFHCodes(s.codes)
		// One ground-truth query per set; wayScratch is free between Runs.
		counts := b.wayScratch
		ways := len(counts)
		for first := 0; first < len(s.codes); first += ways {
			b.data.CapableFaultCounts(first, counts)
			for w, code := range s.codes[first : first+ways] {
				capable := counts[w]
				m.Lines++
				if capable >= 1 {
					m.TrueFaulty++
				}
				switch code {
				case 3:
					m.Disabled++
					if capable < 2 {
						m.FalseDisable++
					}
				case 1:
					m.Initial++
				case 2:
					if capable >= 2 {
						m.FalseTrust++
					}
				default: // stable, 0 known faults
					if capable >= 1 {
						m.FalseTrust++
					}
				}
			}
		}
	}
	return m, true
}

// Scrub runs each bank scheme's disabled-line scrubber, if the scheme has
// one, and returns the total number of reclaimed lines. Call only between
// Runs. Under a classed fault population the scrubber's re-test observes
// the current fault epoch, so intermittent faults that are dormant right
// now pass the test and the line is reclaimed only to fail again later —
// exactly the churn the misclassification oracle measures.
func (s *System) Scrub() (reclaimed int, ok bool) {
	if _, is := s.banks[0].scheme.(scrubber); !is {
		return 0, false
	}
	epoch := s.eng.Now() / s.classEpoch
	for _, b := range s.banks {
		if s.classed {
			b.data.SetFaultEpoch(epoch)
		}
		reclaimed += b.scheme.(scrubber).Scrub()
	}
	return reclaimed, true
}

// mergeCounters rebuilds the merged counter view from the system counters
// and every domain's private set, in fixed order. Addition commutes, so
// the merged values are independent of shard count and scheduling.
func (s *System) mergeCounters() {
	s.ctr.Reset()
	s.ctr.MergeFrom(&s.sysCtr)
	for _, c := range s.cus {
		s.ctr.MergeFrom(&c.ctr)
	}
	for _, b := range s.banks {
		s.ctr.MergeFrom(&b.ctr)
	}
}

func (s *System) memReads() uint64 {
	var n uint64
	for _, b := range s.banks {
		n += b.mem.Accesses()
	}
	return n
}

// --- data content model ---

// lineContent returns the deterministic memory content of a line address at
// a write version: memory is a pure function, so the backing store needs no
// per-line storage.
func lineContent(addr uint64, version uint32) bitvec.Line {
	var l bitvec.Line
	x := addr*0x9e3779b97f4a7c15 ^ uint64(version)*0xda942042e4dd58b5
	for w := range l {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		l[w] = z ^ (z >> 31)
	}
	return l
}

// pruneLines rebuilds the bank's line-state table without entries for
// lines that are no longer observable (not resident in this bank and with
// no fetch in flight) once it exceeds its high-water mark (4x the bank
// line count), bounding memory across repeated Runs on streaming
// workloads. Survivors keep their exact packed state. It reports whether
// it rebuilt the table, which invalidates any value read from it before.
func (b *bankDomain) pruneLines() bool {
	if b.lineState.live <= b.versionsHighWater {
		return false
	}
	old := b.lineState
	b.lineState.init(len(old.keys))
	for i, k := range old.keys {
		if k == 0 {
			continue
		}
		lineAddr := k - 1
		v := old.vals[i]
		if packedPending(v) > 0 || b.resident(lineAddr) {
			*b.lineState.ref(lineAddr) = v
		}
	}
	b.ctr.IncC(cVersionPrunes)
	return true
}

// resident reports whether this bank holds the line.
func (b *bankDomain) resident(lineAddr uint64) bool {
	_, lset, tag := b.sys.split(lineAddr << b.sys.lineShift)
	_, hit := b.tags.Lookup(lset, tag)
	return hit
}

// --- simulation ---

// Run simulates the given per-CU traces to completion and returns the
// result, with the end-of-run misclassification census (Misclassification)
// when the scheme exposes DFH codes. The trace slice must have at least
// cfg.CUs entries; extras are ignored.
//
// Run may be called repeatedly on the same System: cache, scheme, and DFH
// state persist across calls (the paper's "training happens once per
// reset cycle, not per kernel"), and the Result reports only the latest
// run's cycles and event deltas. This is how steady-state measurements
// exclude one-time warmup.
func (s *System) Run(traces [][]workload.Request) Result {
	res := s.RunKernel(traces)
	res.Misclass, res.HasMisclass = s.misclassification()
	return res
}

// RunKernel is Run without the misclassification census, whose walk over
// every L2 line a warmup kernel's result does not need: the Result leaves
// Misclass and HasMisclass unset. The simulated machine is the same.
func (s *System) RunKernel(traces [][]workload.Request) Result {
	if len(traces) < s.cfg.CUs {
		panic(fmt.Sprintf("gpu: %d traces for %d CUs", len(traces), s.cfg.CUs))
	}
	startCycle := s.eng.Now()
	s.mergeCounters()
	readMisses, errorMisses := s.ctr.GetC(cReadMisses), s.ctr.GetC(cErrorMisses)
	accesses, sdc := s.ctr.GetC(cL2Accesses), s.ctr.GetC(cSDC)
	strikes := s.ctr.GetC(cTransientStrikes)
	startMem := s.memReads()
	if s.observer != nil {
		s.startObserver()
	}
	for i, c := range s.cus {
		c.trace = traces[i]
		c.idx = 0
		c.inflight = 0
		c.lastIssue = 0
		c.started = false
		c.instrs = 0
		c.issueMore()
	}
	cycles := s.eng.Run()
	if s.observer != nil {
		s.flushObserver()
	}
	s.mergeCounters()
	res := Result{
		Cycles:           cycles - startCycle,
		L2Misses:         s.ctr.GetC(cReadMisses) - readMisses + s.ctr.GetC(cErrorMisses) - errorMisses,
		L2Accesses:       s.ctr.GetC(cL2Accesses) - accesses,
		MemAccesses:      s.memReads() - startMem,
		DisabledLines:    s.DisabledLines(),
		SDC:              s.ctr.GetC(cSDC) - sdc,
		TransientStrikes: s.ctr.GetC(cTransientStrikes) - strikes,
		Counters:         &s.ctr,
		Sched:            s.eng.Stats(),
	}
	for _, c := range s.cus {
		res.Instructions += c.instrs
	}
	return res
}

// --- CU domain ---

// OnEvent implements engine.EventSink for a CU front-end.
func (c *cuDomain) OnEvent(kind uint8, a, b uint64) {
	switch kind {
	case ckRead:
		c.read(a)
	case ckWrite:
		c.write(a)
	case ckRetire:
		c.complete()
	case ckRetireFill:
		c.l1Fill(a)
		c.complete()
	}
}

// issueMore launches trace requests for a CU until its window fills or the
// trace ends. Issue spacing models compute between accesses:
// instructions-per-access divided by the CU's issue IPC.
func (c *cuDomain) issueMore() {
	now := c.d.Now()
	for c.inflight < c.sys.cfg.WindowPerCU && c.idx < len(c.trace) {
		req := c.trace[c.idx]
		c.idx++
		c.inflight++
		gap := uint64(float64(req.Instrs) / c.sys.cfg.IssueIPC)
		issueAt := now
		if issueAt < c.sys.stallUntil {
			issueAt = c.sys.stallUntil
		}
		if c.started && c.lastIssue+gap > issueAt {
			issueAt = c.lastIssue + gap
		}
		c.started = true
		c.lastIssue = issueAt
		c.instrs += uint64(req.Instrs)
		c.instrsTotal += uint64(req.Instrs)
		kind := ckRead
		if req.Write {
			kind = ckWrite
		}
		c.d.After(issueAt-now, kind, req.Addr, 0)
	}
}

// complete retires one in-flight request and refills the window.
func (c *cuDomain) complete() {
	c.inflight--
	c.issueMore()
}

// read starts one load at the current cycle: L1 hit retires locally, a
// miss posts a read message to the owning L2 bank.
func (c *cuDomain) read(addr uint64) {
	c.ctr.IncC(cL1Reads)
	set := c.l1.Index(addr)
	if way, hit := c.l1.Lookup(set, c.l1.Tag(addr)); hit {
		c.ctr.IncC(cL1Hits)
		c.l1.Touch(set, way)
		c.d.After(c.sys.cfg.L1Lat, ckRetire, 0, 0)
		return
	}
	bank, _, _ := c.sys.split(addr)
	c.d.Send(c.sys.banks[bank].d, c.sys.cfg.L1Lat, bkRead, addr, uint64(c.id))
}

// write starts one store: write-through, no-allocate at both levels; the
// store retires after the L1 latency without a completion dependency,
// while the update travels to the bank as a posted message.
func (c *cuDomain) write(addr uint64) {
	c.ctr.IncC(cL1Writes)
	set := c.l1.Index(addr)
	var l1Hit uint64
	if way, hit := c.l1.Lookup(set, c.l1.Tag(addr)); hit {
		c.l1.Touch(set, way)
		l1Hit = 1
	}
	c.d.After(c.sys.cfg.L1Lat, ckRetire, 0, 0)
	bank, _, _ := c.sys.split(addr)
	c.d.Send(c.sys.banks[bank].d, c.sys.cfg.L1Lat, bkStore, addr, l1Hit)
}

// l1Fill installs a line into the CU's L1 (plain LRU, no protection — the
// paper's scope is the L2).
func (c *cuDomain) l1Fill(addr uint64) {
	set := c.l1.Index(addr)
	tag := c.l1.Tag(addr)
	if _, hit := c.l1.Lookup(set, tag); hit {
		return
	}
	way, ok := c.l1.Victim(set, nil)
	if !ok {
		return
	}
	c.l1.Install(set, way, tag)
}

// --- bank domain ---

// OnEvent implements engine.EventSink for an L2 bank.
func (b *bankDomain) OnEvent(kind uint8, a, bb uint64) {
	if b.sys.classed {
		// Keep the data array's fault epoch in step with the bank's clock so
		// intermittent/aging activation is a pure function of simulated time.
		b.data.SetFaultEpoch(b.d.Now() / b.sys.classEpoch)
	}
	switch kind {
	case bkRead:
		b.read(a, int(bb))
	case bkStore:
		b.store(a, bb != 0)
	case bkFill:
		b.fill(a, int(bb))
	}
}

// read performs the L2 read pipeline for one request arriving from a CU.
func (b *bankDomain) read(addr uint64, cu int) {
	b.ctr.IncC(cL2Accesses)
	now := b.d.Now()
	start := now
	if b.free > start {
		start = b.free
	}
	b.free = start + b.sys.cfg.L2TagLat + b.sys.cfg.L2DataLat
	_, set, tag := b.sys.split(addr)

	if b.sys.cfg.TagSoftErrorPerLookup > 0 && b.softRNG.Bernoulli(b.sys.cfg.TagSoftErrorPerLookup) {
		// Tag parity catches the flip; the affected entry is dropped and
		// the access refetches — never a wrong-line hit.
		b.ctr.IncC(cTagParityMisses)
		if way, hit := b.tags.Lookup(set, tag); hit {
			b.scheme.OnEvict(set, way)
			b.tags.Invalidate(set, way)
		}
		b.ctr.IncC(cReadMisses)
		b.fetch(addr, cu, start+b.sys.cfg.L2TagLat)
		return
	}

	if way, hit := b.tags.Lookup(set, tag); hit {
		id := b.tags.LineID(set, way)
		if b.sys.cfg.SoftErrorPerRead > 0 && b.softRNG.Bernoulli(b.sys.cfg.SoftErrorPerRead) {
			b.data.InjectSoftError(id, b.softRNG.Intn(bitvec.LineBits))
			b.ctr.IncC(cSoftErrors)
		}
		b.readBuf = b.data.Read(id)
		verdict := b.scheme.OnReadHit(set, way, &b.readBuf)
		if verdict == protection.Deliver {
			b.ctr.IncC(cReadHits)
			if b.readBuf != b.data.ReadTrue(id) {
				// Delivered data differs from ground truth: silent data
				// corruption the scheme failed to catch.
				b.ctr.IncC(cSDC)
			}
			done := start + b.sys.cfg.L2TagLat + b.sys.cfg.L2DataLat + b.sys.cfg.ECCLat
			b.d.Send(b.sys.cus[cu].d, done+1-now, ckRetireFill, addr, 0)
			return
		}
		// Error-induced cache miss: the scheme already invalidated or
		// disabled the line; refetch from memory.
		b.ctr.IncC(cErrorMisses)
		b.fetch(addr, cu, start+b.sys.cfg.L2TagLat+b.sys.cfg.L2DataLat+b.sys.cfg.ECCLat)
		return
	}
	b.ctr.IncC(cReadMisses)
	b.fetch(addr, cu, start+b.sys.cfg.L2TagLat)
}

// fetch queues a line fetch on the bank's DRAM channel starting no earlier
// than cycle from. The line has an observer (a pending fetch that will
// evaluate memory content) from here until the fill lands.
//
// The CU's response is scheduled here, at fetch time, rather than when the
// fill lands: the DRAM channel already knows the completion cycle, so the
// response can be posted for done+1 — the same delivery cycle the fill
// event would have produced — carrying only the address (the CU's L1 fill
// is content-free). Timing this early is what gives the bank→CU latency
// edge its large declared floor, and with it the engine's multi-cycle
// round coalescing.
func (b *bankDomain) fetch(addr uint64, cu int, from uint64) {
	lineAddr := addr >> b.sys.lineShift
	p := b.lineState.ref(lineAddr)
	*p = *p&^0xFFFFFFFF | uint64(uint32(*p)+1)
	done := b.mem.Access(from)
	now := b.d.Now()
	b.d.After(done-now, bkFill, addr, uint64(cu))
	b.d.Send(b.sys.cus[cu].d, done+1-now, ckRetireFill, addr, 0)
}

// fill lands a fetch: the line's content is evaluated at fill time (so
// stores that raced the fetch are reflected) and installed into the bank.
// The CU response was already posted at fetch time for the cycle after
// this event.
//
// The fetch retires in the line's one table probe: its pending count is
// decremented to zero rather than removed (dead entries are swept out
// wholesale by pruneLines once the table outgrows its high-water mark),
// and the version is read back from the same slot. Only a prune, which
// can drop this very line (it is neither resident nor pending any more),
// makes a second probe.
func (b *bankDomain) fill(addr uint64, cu int) {
	lineAddr := addr >> b.sys.lineShift
	p := b.lineState.ref(lineAddr)
	*p = *p&^0xFFFFFFFF | uint64(uint32(*p)-1)
	v := *p
	if b.pruneLines() {
		v = b.lineState.get(lineAddr)
	}
	b.installL2(addr, lineContent(lineAddr, packedVersion(v)))
}

// store applies a write-through update at the bank. The line's content
// version advances only when some copy or in-flight fetch can observe the
// new value: the storing CU's L1, this bank, or a pending fill.
func (b *bankDomain) store(addr uint64, l1Hit bool) {
	lineAddr := addr >> b.sys.lineShift
	_, set, tag := b.sys.split(addr)
	way, l2Hit := b.tags.Lookup(set, tag)
	var v uint64 // the packed line state after the bump, when l2Hit
	if l1Hit || l2Hit || packedPending(b.lineState.get(lineAddr)) > 0 {
		p := b.lineState.ref(lineAddr)
		*p += 1 << 32
		v = *p
		if b.pruneLines() {
			v = b.lineState.get(lineAddr)
		}
	}
	if l2Hit {
		b.ctr.IncC(cWriteUpdates)
		id := b.tags.LineID(set, way)
		newData := lineContent(lineAddr, packedVersion(v))
		b.data.Write(id, newData)
		b.scheme.OnWriteHit(set, way, newData)
	}
	b.mem.AccessWrite(b.d.Now())
}

// installL2 places fetched data into the bank, driving victim selection,
// eviction training, and fill metadata generation on the scheme. When every
// way of the set is disabled the line bypasses the cache.
func (b *bankDomain) installL2(addr uint64, data bitvec.Line) {
	_, set, tag := b.sys.split(addr)
	if _, hit := b.tags.Lookup(set, tag); hit {
		// A racing fill already installed this line.
		return
	}
	// Eviction training can disable the chosen victim (Killi discovering a
	// multi-bit faulty line on its way out); re-pick until an installable
	// way is found or the set is exhausted.
	way := -1
	for attempt := 0; attempt < b.sys.cfg.L2Ways; attempt++ {
		w := b.victimWay(set)
		if w < 0 {
			break
		}
		if b.tags.Entry(set, w).Valid {
			b.ctr.IncC(cEvictions)
			b.scheme.OnEvict(set, w)
		}
		if !b.tags.Entry(set, w).Disabled {
			way = w
			break
		}
	}
	if way < 0 {
		b.ctr.IncC(cBypassFills)
		return
	}
	b.tags.Install(set, way, tag)
	id := b.tags.LineID(set, way)
	b.data.Write(id, data)
	b.scheme.OnFill(set, way, data)
}

// victimWay picks the way a fill of the bank set replaces, in one pass
// over the set, or -1 when every way is disabled. While the set has an
// invalid enabled way the scheme's VictimFunc chooses among the invalid
// ways (the first one without a VictimFunc). Otherwise the victim is a
// uniformly random valid enabled way, drawn from replRNG over the ways in
// index order: real GPU L2s do not implement true LRU, and a random victim
// also keeps streaming fills from deterministically flushing resident
// reuse data. The L2 therefore keeps no recency. The candidate scratch is
// sized to the configured associativity, so no way can be excluded.
func (b *bankDomain) victimWay(set int) int {
	es := b.tags.Set(set)
	cand := b.wayScratch
	n, invalid := 0, -1
	for w := range es {
		switch e := &es[w]; {
		case e.Disabled:
		case !e.Valid:
			if invalid < 0 {
				invalid = w
			}
		default:
			cand[n] = w
			n++
		}
	}
	if invalid >= 0 {
		pick := b.scheme.VictimFunc()
		if pick == nil {
			return invalid
		}
		w := pick(es)
		if w >= 0 && es[w].Disabled {
			panic("gpu: victim function returned a disabled way")
		}
		return w
	}
	if n == 0 {
		return -1
	}
	return cand[b.replRNG.Intn(n)]
}
