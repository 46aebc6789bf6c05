// Package obs is the simulator's observability layer: cheap epoch-bucketed
// time series of the quantities behind the paper's temporal story (DFH
// state populations, ECC-cache pressure, disabled lines, interval L2 MPKI
// and stall cycles) plus a structured event log of every classification
// transition, exportable as JSONL or Chrome trace_event JSON.
//
// The simulator reports these through the Observer interface, which the
// gpu package holds nil by default: with no observer attached the
// simulation path is bit-identical and allocation-free, exactly as before
// this package existed. With an observer attached the results are still
// bit-identical — instrumentation only reads simulator state — which the
// golden-digest tests in internal/experiments pin.
//
// Collector is the standard Observer implementation; cmd/killi-sim wires
// it behind the -timeseries and -trace-events flags. The package also
// provides the expvar/HTTP metrics endpoint behind killi-sim's
// -metrics-addr flag for watching long sweeps live, and StartProfiles, the
// one pprof setup behind the -cpuprofile/-memprofile flags of killi-sim
// and killi-fleet.
package obs

// DFH state indices, mirroring the killi package's two-bit encoding. The
// obs package cannot import killi (killi reports through protection.Host,
// whose package imports obs), so the values are duplicated here and pinned
// by a cross-package test in internal/killi.
const (
	StateStable0  = 0 // b'00: classified fault-free
	StateInitial  = 1 // b'01: unknown, in training
	StateStable1  = 2 // b'10: one known fault
	StateDisabled = 3 // b'11: >=2 faults, line disabled
	NumStates     = 4
)

var stateNames = [NumStates]string{"stable0", "initial", "stable1", "disabled"}

// StateName returns the stable lowercase name of a DFH state index, used
// by both export formats ("stable0", "initial", "stable1", "disabled").
func StateName(s uint8) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Transition is one DFH classification event: the line at a dense L2 line
// ID moved between states at a cycle (unknown→clean, unknown→1-fault,
// →disabled, scrub reclaims, post-training relearns).
type Transition struct {
	Cycle uint64
	Line  int
	From  uint8
	To    uint8
}

// Reset is a DFH reset: power-on or a voltage transition returned every
// line (Lines of them) to the Initial state.
type Reset struct {
	Cycle   uint64
	Voltage float64
	Lines   int
}

// Sample is the machine-level snapshot the host takes at an epoch
// boundary. All throughput fields are deltas over the epoch, not
// cumulative totals; occupancy-style fields are point-in-time values.
type Sample struct {
	// Epoch is the bucket index (see EpochIndex); Cycle is the cycle the
	// sample was taken at — the epoch's right edge, or earlier for the
	// final partial epoch of a run.
	Epoch int
	Cycle uint64

	// L2 activity over the epoch. L2Misses includes error-induced misses,
	// matching gpu.Result; ErrorMisses breaks that component out.
	L2Accesses   uint64
	L2Misses     uint64
	ErrorMisses  uint64
	Instructions uint64
	StallCycles  uint64

	// Point-in-time state.
	DisabledLines int
	ECCOccupancy  int
	ECCEntries    int

	// ECC cache activity over the epoch (zero for schemes without one).
	ECCAccesses            uint64
	ECCContentionEvictions uint64
}

// MPKI returns the epoch's interval L2 MPKI (0 when no instructions
// retired in the epoch).
func (s Sample) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L2Misses) * 1000 / float64(s.Instructions)
}

// Observer receives instrumentation callbacks from the simulator. All
// methods are invoked from the simulation goroutine, in cycle order;
// implementations need no locking unless they share state elsewhere.
type Observer interface {
	// OnReset reports a DFH reset (power-on, SetVoltage) that returned
	// every line to Initial.
	OnReset(Reset)
	// OnTransition reports one line's DFH state change.
	OnTransition(Transition)
	// OnEpoch reports the host's machine-level sample for one epoch.
	OnEpoch(Sample)
}

// EpochIndex maps an absolute cycle to its epoch bucket for a given epoch
// length: bucket k covers cycles (k*epochCycles, (k+1)*epochCycles], so
// the sample a ticker takes exactly at a boundary cycle belongs to the
// epoch it closes. Cycle 0 maps to epoch 0.
func EpochIndex(cycle, epochCycles uint64) int {
	if cycle == 0 || epochCycles == 0 {
		return 0
	}
	return int((cycle - 1) / epochCycles)
}

// EpochRecord is one collected epoch: the host's Sample plus the DFH
// population snapshot the Collector maintains from transitions.
type EpochRecord struct {
	Sample
	// DFH holds the line count per state at the sample cycle, indexed by
	// StateStable0..StateDisabled.
	DFH [NumStates]int
}

// Collector accumulates everything an Observer sees, in memory, for later
// export. The zero value is ready to use; construct with NewCollector for
// symmetry with the rest of the package.
//
// Population accounting: a Reset sets the population vector to
// all-Initial; each Transition moves one line between states. The
// populations therefore track the scheme's DFH state exactly without the
// collector ever probing 32K lines.
type Collector struct {
	lines       int
	pop         [NumStates]int
	resets      []Reset
	transitions []Transition
	epochs      []EpochRecord
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// OnReset implements Observer.
func (c *Collector) OnReset(r Reset) {
	c.lines = r.Lines
	c.pop = [NumStates]int{}
	c.pop[StateInitial] = r.Lines
	c.resets = append(c.resets, r)
}

// OnTransition implements Observer.
func (c *Collector) OnTransition(t Transition) {
	if int(t.From) < NumStates {
		c.pop[t.From]--
	}
	if int(t.To) < NumStates {
		c.pop[t.To]++
	}
	c.transitions = append(c.transitions, t)
}

// OnEpoch implements Observer.
func (c *Collector) OnEpoch(s Sample) {
	c.epochs = append(c.epochs, EpochRecord{Sample: s, DFH: c.pop})
}

// Lines returns the line count of the most recent reset (0 before any).
func (c *Collector) Lines() int { return c.lines }

// Populations returns the current DFH population vector.
func (c *Collector) Populations() [NumStates]int { return c.pop }

// Resets returns the recorded DFH resets in cycle order.
func (c *Collector) Resets() []Reset { return c.resets }

// Transitions returns the recorded transitions in cycle order.
func (c *Collector) Transitions() []Transition { return c.transitions }

// Epochs returns the collected epoch records in cycle order.
func (c *Collector) Epochs() []EpochRecord { return c.epochs }
