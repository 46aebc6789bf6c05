package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"killi/internal/asciiplot"
)

// jsonRecord is the single JSONL record shape: Type selects which fields
// are meaningful ("reset", "transition", "epoch"). One shape for all three
// keeps parsing trivial for downstream tools (jq, pandas.read_json).
type jsonRecord struct {
	Type  string `json:"type"`
	Cycle uint64 `json:"cycle"`

	// reset
	Voltage float64 `json:"voltage,omitempty"`
	Lines   int     `json:"lines,omitempty"`

	// transition
	Line int    `json:"line,omitempty"`
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`

	// epoch
	Epoch                  *int     `json:"epoch,omitempty"`
	DFH                    *dfhJSON `json:"dfh,omitempty"`
	L2Accesses             uint64   `json:"l2_accesses,omitempty"`
	L2Misses               uint64   `json:"l2_misses,omitempty"`
	ErrorMisses            uint64   `json:"error_misses,omitempty"`
	Instructions           uint64   `json:"instructions,omitempty"`
	MPKI                   float64  `json:"mpki,omitempty"`
	StallCycles            uint64   `json:"stall_cycles,omitempty"`
	DisabledLines          int      `json:"disabled_lines,omitempty"`
	ECCOccupancy           int      `json:"ecc_occupancy,omitempty"`
	ECCEntries             int      `json:"ecc_entries,omitempty"`
	ECCAccesses            uint64   `json:"ecc_accesses,omitempty"`
	ECCContentionEvictions uint64   `json:"ecc_contention_evictions,omitempty"`
}

// dfhJSON renders the population vector with stable field order.
type dfhJSON struct {
	Stable0  int `json:"stable0"`
	Initial  int `json:"initial"`
	Stable1  int `json:"stable1"`
	Disabled int `json:"disabled"`
}

func popToJSON(p [NumStates]int) *dfhJSON {
	return &dfhJSON{Stable0: p[StateStable0], Initial: p[StateInitial],
		Stable1: p[StateStable1], Disabled: p[StateDisabled]}
}

// WriteJSONL streams every recorded event as one JSON object per line, in
// cycle order; records sharing a cycle appear as reset, then transitions,
// then the epoch sample (a boundary sample closes the epoch that the
// same-cycle transitions belong to). The output is deterministic for a
// deterministic run, so committed artifacts diff cleanly across PRs.
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	ri, ti, ei := 0, 0, 0
	for ri < len(c.resets) || ti < len(c.transitions) || ei < len(c.epochs) {
		var rec jsonRecord
		switch {
		case ri < len(c.resets) &&
			(ti >= len(c.transitions) || c.resets[ri].Cycle <= c.transitions[ti].Cycle) &&
			(ei >= len(c.epochs) || c.resets[ri].Cycle <= c.epochs[ei].Cycle):
			r := c.resets[ri]
			ri++
			rec = jsonRecord{Type: "reset", Cycle: r.Cycle, Voltage: r.Voltage, Lines: r.Lines}
		case ti < len(c.transitions) &&
			(ei >= len(c.epochs) || c.transitions[ti].Cycle <= c.epochs[ei].Cycle):
			t := c.transitions[ti]
			ti++
			rec = jsonRecord{Type: "transition", Cycle: t.Cycle, Line: t.Line,
				From: StateName(t.From), To: StateName(t.To)}
		default:
			e := c.epochs[ei]
			ei++
			epoch := e.Epoch
			rec = jsonRecord{Type: "epoch", Cycle: e.Cycle, Epoch: &epoch,
				DFH:        popToJSON(e.DFH),
				L2Accesses: e.L2Accesses, L2Misses: e.L2Misses,
				ErrorMisses: e.ErrorMisses, Instructions: e.Instructions,
				MPKI: e.MPKI(), StallCycles: e.StallCycles,
				DisabledLines: e.DisabledLines,
				ECCOccupancy:  e.ECCOccupancy, ECCEntries: e.ECCEntries,
				ECCAccesses:            e.ECCAccesses,
				ECCContentionEvictions: e.ECCContentionEvictions,
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// traceEvent is one Chrome trace_event entry (the JSON Object Format of
// the Trace Event specification; load the file at chrome://tracing or
// https://ui.perfetto.dev).
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level trace_event container.
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteTraceEvents renders the collected run in Chrome trace_event JSON:
// per-epoch counter tracks ("ph":"C") for the DFH populations, ECC-cache
// occupancy, disabled lines, and interval MPKI, plus instant events
// ("ph":"i") for every classification transition and DFH reset. Cycles map
// 1:1 onto trace microseconds (the viewer's unit label is nominal).
func (c *Collector) WriteTraceEvents(w io.Writer) error {
	tf := traceFile{
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"generator": "killi-sim", "time_unit": "cycles"},
	}
	tf.TraceEvents = append(tf.TraceEvents, traceEvent{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": "killi-sim"},
	})
	for _, r := range c.resets {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "dfh_reset", Phase: "i", TS: r.Cycle, PID: 1, TID: 1, Scope: "g",
			Args: map[string]any{"voltage": r.Voltage, "lines": r.Lines},
		})
	}
	for _, e := range c.epochs {
		tf.TraceEvents = append(tf.TraceEvents,
			traceEvent{Name: "dfh population", Phase: "C", TS: e.Cycle, PID: 1,
				Args: map[string]any{
					"stable0":  e.DFH[StateStable0],
					"initial":  e.DFH[StateInitial],
					"stable1":  e.DFH[StateStable1],
					"disabled": e.DFH[StateDisabled],
				}},
			traceEvent{Name: "ecc cache", Phase: "C", TS: e.Cycle, PID: 1,
				Args: map[string]any{"occupancy": e.ECCOccupancy}},
			traceEvent{Name: "l2", Phase: "C", TS: e.Cycle, PID: 1,
				Args: map[string]any{
					"interval_mpki":  e.MPKI(),
					"disabled_lines": e.DisabledLines,
				}},
		)
	}
	for _, t := range c.transitions {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name:  StateName(t.From) + "→" + StateName(t.To),
			Phase: "i", TS: t.Cycle, PID: 1, TID: 2, Scope: "t",
			Args: map[string]any{"line": t.Line},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// TrainingCurve renders the DFH population time series as a terminal line
// chart: one series per state over the sampled epochs, the x axis in
// cycles. It returns "" when no epochs were collected.
func (c *Collector) TrainingCurve() string {
	if len(c.epochs) == 0 {
		return ""
	}
	xs := make([]float64, len(c.epochs))
	var series [NumStates]asciiplot.Series
	markers := [NumStates]byte{'o', '?', '1', 'x'}
	for s := 0; s < NumStates; s++ {
		series[s] = asciiplot.Series{
			Name:   StateName(uint8(s)),
			Y:      make([]float64, len(c.epochs)),
			Marker: markers[s],
		}
	}
	for i, e := range c.epochs {
		xs[i] = float64(e.Cycle)
		for s := 0; s < NumStates; s++ {
			series[s].Y[i] = float64(e.DFH[s])
		}
	}
	title := fmt.Sprintf("DFH population per state vs cycle (%d lines, %d epochs)",
		c.lines, len(c.epochs))
	return asciiplot.Render(title, xs, series[:], asciiplot.Options{Width: 72, Height: 18})
}
