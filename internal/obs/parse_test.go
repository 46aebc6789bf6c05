package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ParseJSONL reconstructs a Collector from WriteJSONL output: the reverse
// direction of the round trip the export tests pin.
func ParseJSONL(r io.Reader) (*Collector, error) {
	c := NewCollector()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec jsonRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", line, err)
		}
		switch rec.Type {
		case "reset":
			c.OnReset(Reset{Cycle: rec.Cycle, Voltage: rec.Voltage, Lines: rec.Lines})
		case "transition":
			from, to := stateIndex(rec.From), stateIndex(rec.To)
			if from == NumStates || to == NumStates {
				return nil, fmt.Errorf("obs: line %d: unknown DFH state %q -> %q", line, rec.From, rec.To)
			}
			c.OnTransition(Transition{Cycle: rec.Cycle, Line: rec.Line, From: from, To: to})
		case "epoch":
			if rec.Epoch == nil || rec.DFH == nil {
				return nil, fmt.Errorf("obs: line %d: epoch record missing epoch/dfh", line)
			}
			e := EpochRecord{
				Sample: Sample{
					Epoch: *rec.Epoch, Cycle: rec.Cycle,
					L2Accesses: rec.L2Accesses, L2Misses: rec.L2Misses,
					ErrorMisses: rec.ErrorMisses, Instructions: rec.Instructions,
					StallCycles:   rec.StallCycles,
					DisabledLines: rec.DisabledLines,
					ECCOccupancy:  rec.ECCOccupancy, ECCEntries: rec.ECCEntries,
					ECCAccesses:            rec.ECCAccesses,
					ECCContentionEvictions: rec.ECCContentionEvictions,
				},
				DFH: rec.DFH.pop(),
			}
			// Bypass OnEpoch: the record carries its own population
			// snapshot, which OnEpoch would overwrite with c.pop.
			c.epochs = append(c.epochs, e)
			c.pop = e.DFH
		default:
			return nil, fmt.Errorf("obs: line %d: unknown record type %q", line, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// stateIndex inverts StateName; it returns NumStates for unknown names.
func stateIndex(name string) uint8 {
	for i, n := range stateNames {
		if n == name {
			return uint8(i)
		}
	}
	return NumStates
}

func (d *dfhJSON) pop() [NumStates]int {
	var p [NumStates]int
	p[StateStable0], p[StateInitial] = d.Stable0, d.Initial
	p[StateStable1], p[StateDisabled] = d.Stable1, d.Disabled
	return p
}
