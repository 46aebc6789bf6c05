// Package dvfs models dynamic voltage scaling of the L2 cache and the cost
// of each power-state transition under different protection schemes.
//
// This is the paper's motivating scenario made measurable: "additional
// MBIST steps are time consuming, resulting in extended boot time or
// delayed power state transitions" (§1). Every pre-characterized scheme
// (SECDED/DECTED per line, MS-ECC, offline FLAIR) must re-run MBIST over
// the whole array at each voltage change to rebuild its fault map; Killi
// resets two DFH bits per line and keeps executing.
//
// The MBIST cost model follows standard March tests: a March C- pass
// performs 10 element operations per cell; at line granularity with
// word-wide access that is MarchOps full-array passes, divided across the
// banks that can test in parallel.
package dvfs

import (
	"fmt"

	"killi/internal/gpu"
	"killi/internal/protection"
	"killi/internal/workload"
)

// MBISTModel parameterizes the offline test pass pre-characterized schemes
// run at every voltage transition.
type MBISTModel struct {
	// MarchOps is the number of full-array access passes (March C- = 10).
	MarchOps int
	// CyclesPerOp is the array access time per line per pass.
	CyclesPerOp uint64
	// ParallelBanks is how many banks test concurrently.
	ParallelBanks int
}

// DefaultMBIST returns a March C- style model over the Table 3 cache:
// 10 passes, 4 cycles per line access (tag+data), 16 banks in parallel.
func DefaultMBIST() MBISTModel {
	return MBISTModel{MarchOps: 10, CyclesPerOp: 4, ParallelBanks: 16}
}

// StallCycles returns the full-array MBIST duration for a cache of the
// given line count.
func (m MBISTModel) StallCycles(lines int) uint64 {
	if m.ParallelBanks < 1 {
		m.ParallelBanks = 1
	}
	return uint64(lines) * uint64(m.MarchOps) * m.CyclesPerOp / uint64(m.ParallelBanks)
}

// needsMBIST reports whether a scheme requires an offline MBIST pass at
// voltage transitions. Killi and online-training FLAIR relearn at runtime;
// everything pre-characterized does not.
func needsMBIST(s protection.Scheme) bool {
	switch s.(type) {
	case *protection.PerLine:
		return true
	case *protection.FLAIR:
		return s.(*protection.FLAIR).TrainAccesses == 0 // offline variant
	default:
		return false
	}
}

// Phase is one segment of a voltage schedule: run the workload trace at
// the given L2 voltage.
type Phase struct {
	Voltage float64
	Kernel  [][]workload.Request
}

// Report summarizes a schedule run.
type Report struct {
	// TotalCycles includes compute and all transition stalls.
	TotalCycles uint64
	// StallCycles is the summed MBIST stall time.
	StallCycles uint64
	// PhaseCycles is the per-phase execution time (stall included in the
	// phase that begins with the transition).
	PhaseCycles []uint64
	// Transitions counts voltage changes.
	Transitions int
}

// String renders the report compactly.
func (r Report) String() string {
	return fmt.Sprintf("total=%d cycles (stalls=%d, %.1f%%), %d transitions",
		r.TotalCycles, r.StallCycles,
		float64(r.StallCycles)/float64(r.TotalCycles)*100, r.Transitions)
}

// RunSchedule drives a system through a voltage schedule, charging the
// MBIST stall at every transition when the scheme requires it. scheme is a
// probe instance (e.g. one built from the factory the system was
// constructed with) consulted only for needsMBIST.
func RunSchedule(sys *gpu.System, scheme protection.Scheme, m MBISTModel, phases []Phase) Report {
	rep := Report{}
	lines := sys.L2Lines()
	for i, ph := range phases {
		if i > 0 || ph.Voltage != sys.Voltage() {
			var stall uint64
			if needsMBIST(scheme) {
				stall = m.StallCycles(lines)
			}
			sys.SetVoltage(ph.Voltage, stall)
			rep.StallCycles += stall
			rep.Transitions++
		}
		res := sys.Run(ph.Kernel)
		rep.PhaseCycles = append(rep.PhaseCycles, res.Cycles)
		rep.TotalCycles += res.Cycles
	}
	return rep
}
