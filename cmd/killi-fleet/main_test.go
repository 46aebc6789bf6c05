package main

import (
	"math"
	"testing"
)

func TestParseVoltages(t *testing.T) {
	cases := []struct {
		in   string
		want []float64
	}{
		{"", nil},
		{"0.625", []float64{0.625}},
		{"0.575, 0.625 ,0.675", []float64{0.575, 0.625, 0.675}},
		{"0.55:0.725:0.025", []float64{0.55, 0.575, 0.6, 0.625, 0.65, 0.675, 0.7, 0.725}},
		{"0.6:0.6:0.1", []float64{0.6}},
		{"0.575:0.7:0.025", []float64{0.575, 0.6, 0.625, 0.65, 0.675, 0.7}},
	}
	for _, c := range cases {
		got, err := parseVoltages(c.in)
		if err != nil {
			t.Errorf("parseVoltages(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseVoltages(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("parseVoltages(%q)[%d] = %v, want %v", c.in, i, got[i], c.want[i])
			}
		}
	}
	for _, bad := range []string{
		"lo:hi:step", "0.6:0.5:0.1", "0.5:0.7:0", "0.5:0.7", "abc", ",",
		// Once returned an empty grid with a nil error, which campaign.Config
		// silently replaced with the default grid.
		"0:1:1e-300", "nan:1:0.1", "0:inf:1",
		"0:1:nan", "-inf:0.6:0.1", "0:1:1e-6",
	} {
		if _, err := parseVoltages(bad); err == nil {
			t.Errorf("parseVoltages(%q) should fail", bad)
		}
	}
}
