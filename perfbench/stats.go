package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks, the method of NumPy's default and of
// Python's statistics.quantiles(method="inclusive"). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles renders the 10th, 25th, 50th, 75th and 90th percentiles of xs
// with the sample count.
func quartiles(xs []float64) string {
	return fmt.Sprintf("p10 %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g (n=%d)", percentile(xs, 0.1),
		percentile(xs, 0.25), percentile(xs, 0.5), percentile(xs, 0.75), percentile(xs, 0.9), len(xs))
}

// scale multiplies every sample by k.
func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// beyond is how many of n samples lie strictly above the p-quantile's rank:
// a tail percentile is reported only when at least ten samples lie beyond
// it, so p99 needs 1000 samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// windowRates turns in-order completion times (measured from the phase
// start) into the rate of every run of w consecutive completions. Their
// median is steadier than the phase average: a burst of host noise moves a
// few windows, not the median.
func windowRates(stamps []time.Duration, w int) []float64 {
	t := append([]time.Duration{0}, stamps...)
	var out []float64
	for k := 0; k+w < len(t); k++ {
		out = append(out, float64(w)/(t[k+w]-t[k]).Seconds())
	}
	return out
}

// timed runs f after a full collection, so each timed phase starts from a
// collected heap and pays only for its own garbage, and returns f's wall
// time.
func timed(f func()) time.Duration {
	runtime.GC()
	start := time.Now()
	f()
	return time.Since(start)
}

// Set-up is timed in setupBatches batches of setupRuns back-to-back runs: a
// set-up takes well under a millisecond, so one run's time is mostly host
// noise.
const (
	setupBatches = 3
	setupRuns    = 20
)

// medianSetup returns the median over batches of the mean set-up time in
// seconds, plus every batch mean. Each batch starts from a collected heap.
// The teardown setup returns runs untimed.
func medianSetup(setup func() (teardown func(), err error)) (float64, []float64, error) {
	var means []float64
	for b := 0; b < setupBatches; b++ {
		runtime.GC()
		var total time.Duration
		for i := 0; i < setupRuns; i++ {
			start := time.Now()
			teardown, err := setup()
			total += time.Since(start)
			teardown()
			if err != nil {
				return 0, nil, err
			}
		}
		means = append(means, total.Seconds()/setupRuns)
	}
	return median(means), means, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// copyDir copies the regular files of src (one level) into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// splitmix64 is the stateless mixer every generated input derives from, so a
// seed names the same inputs on every host.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives a nonzero seed for input stream `stream`, item i.
func subSeed(seed uint64, stream, i uint64) uint64 {
	return splitmix64(splitmix64(seed^stream*0x9e3779b97f4a7c15)+i)%(1<<31) + 1
}
