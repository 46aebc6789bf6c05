package main

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"killi/internal/campaign"
)

func TestParseVoltages(t *testing.T) {
	def, err := campaign.Config{Dies: 1}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in   string
		want []float64
	}{
		{"", nil},
		{"0.625", []float64{0.625}},
		{"0.575, 0.625 ,0.675", []float64{0.575, 0.625, 0.675}},
		{"0.55:0.725:0.025", []float64{0.55, 0.575, 0.6, 0.625, 0.65, 0.675, 0.7, 0.725}},
		{"0.6:0.6:0.1", []float64{0.6}},
		// Once yielded 0.6499999999999999 and 0.6749999999999999: a
		// different campaign from the list and from the default grid.
		{"0.575:0.7:0.025", []float64{0.575, 0.6, 0.625, 0.65, 0.675, 0.7}},
		{"0.575:0.7:0.025", def.Voltages},
		// Once yielded 0.65, past hi, through a half-step tolerance.
		{"0.6:0.64:0.025", []float64{0.6, 0.625}},
		{"0.6:0.6499:0.025", []float64{0.6, 0.625}},
		{"6e-1:7E-1:5e-2", []float64{0.6, 0.65, 0.7}},
	}
	for _, c := range cases {
		got, err := parseVoltages(c.in)
		if err != nil {
			t.Errorf("parseVoltages(%q): %v", c.in, err)
			continue
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("parseVoltages(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{
		"lo:hi:step", "0.6:0.5:0.1", "0.5:0.7:0", "0.5:0.7", "abc", ",",
		// Once returned an empty grid with a nil error, which campaign.Config
		// silently replaced with the default grid.
		"0:1:1e-300", "nan:1:0.1", "0:inf:1",
		"0:1:nan", "-inf:0.6:0.1", "0:1:1e-6",
		"1/2:1:0.1", "1:1.0000000000000002:1e-20",
	} {
		if _, err := parseVoltages(bad); err == nil {
			t.Errorf("parseVoltages(%q) should fail", bad)
		}
	}
}

// FuzzParseVoltages fuzzes the -voltages grammar: parseVoltages never
// panics, and an accepted lo:hi:step range is strictly increasing, starts
// at lo and stays inside [lo, hi].
func FuzzParseVoltages(f *testing.F) {
	for _, s := range []string{"", "0.625", "0.575,0.625", "0.55:0.725:0.025", "0.6:0.64:0.025",
		"0.575:0.7:0.025", "6e-1:7E-1:5e-2", "0:1:1e-300", "nan:1:0.1", "1:2", "0x1p-1:1:0.25"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		grid, err := parseVoltages(s)
		parts := strings.Split(strings.TrimSpace(s), ":")
		if err != nil || len(parts) != 3 {
			return
		}
		lo, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		hi, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("parseVoltages(%q) accepted unparsable bounds", s)
		}
		if len(grid) == 0 || grid[0] != lo {
			t.Fatalf("parseVoltages(%q) = %v, want a grid starting at %v", s, grid, lo)
		}
		for i, v := range grid {
			if v > hi || (i > 0 && v <= grid[i-1]) {
				t.Fatalf("parseVoltages(%q) = %v: point %d (%v) out of order or past hi %v", s, grid, i, v, hi)
			}
		}
	})
}

// TestEquivalentVoltageSpellings pins the list form of -voltages: a grid
// spelled in another order, with trailing zeros, an exponent, extra spaces
// or an empty entry normalizes to the same campaign — equal normalized
// configs, so equal axes, die keys and checkpoint names — and a spelling
// that repeats a voltage is rejected, never silently deduplicated.
// simserver's TestEquivalentVoltageQueries holds /v1/campaign's query to
// the same table.
func TestEquivalentVoltageSpellings(t *testing.T) {
	normalized := func(s string) (campaign.Config, error) {
		grid, err := parseVoltages(s)
		if err != nil {
			return campaign.Config{}, err
		}
		return campaign.Config{Dies: 4, Voltages: grid}.Normalized()
	}
	want, err := normalized("0.6,0.65")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"0.65,0.6", "0.60,0.650", " 0.6 , 0.65 ", "0.650,\t0.600", "6e-1,0.65", "0.6,,0.65,"} {
		got, err := normalized(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q normalizes to grid %v, want %v", s, got.Voltages, want.Voltages)
		}
	}
	for _, s := range []string{"0.6,0.60,0.65", "0.65,0.6,0.650"} {
		if got, err := normalized(s); err == nil {
			t.Errorf("%q repeats a voltage but normalizes to grid %v", s, got.Voltages)
		}
	}
}
