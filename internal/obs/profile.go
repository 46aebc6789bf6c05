package obs

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts the host profiles behind the CLIs' -cpuprofile and
// -memprofile flags. A non-empty cpuPath starts a CPU profile written
// there; a non-empty memPath names the heap profile stop writes, after a
// GC, covering every allocation made so far (its alloc_space sample) and
// what is still live. Empty paths skip that profile. stop must be called once; it ends the CPU profile, writes the
// heap profile, and reports any failure.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("-cpuprofile: %w", err))
			}
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				errs = append(errs, fmt.Errorf("-memprofile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
