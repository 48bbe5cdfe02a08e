package main

import (
	"io"
	"strings"
	"testing"

	"precinct"
)

func flagSet(names ...string) map[string]bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return set
}

// TestCheckFigureFlags: a figure run names every flag it would ignore,
// and -format/-workers mean nothing without -fig.
func TestCheckFigureFlags(t *testing.T) {
	for _, ok := range [][]string{
		{},
		{"nodes", "policy", "check"},
		{"fig"},
		{"fig", "format", "workers", "seed", "duration", "warmup", "nodes", "items", "cpuprofile", "memprofile"},
	} {
		if err := checkFigureFlags(flagSet(ok...)); err != nil {
			t.Errorf("flags %v rejected: %v", ok, err)
		}
	}
	for _, tc := range []struct {
		flags []string
		want  []string
	}{
		{[]string{"fig", "policy"}, []string{"-policy"}},
		{[]string{"fig", "nodes", "loss", "config"}, []string{"-config", "-loss"}},
		{[]string{"fig", "check"}, []string{"-check"}},
		{[]string{"format"}, []string{"-format"}},
		{[]string{"workers", "nodes"}, []string{"-workers"}},
	} {
		err := checkFigureFlags(flagSet(tc.flags...))
		if err == nil {
			t.Errorf("flags %v accepted", tc.flags)
			continue
		}
		for _, name := range tc.want {
			if !strings.Contains(err.Error(), name+" ") && !strings.Contains(err.Error(), name+",") {
				t.Errorf("flags %v: error %q does not name %s", tc.flags, err, name)
			}
		}
	}
}

// TestPrintFiguresRejects: an unknown id or format is an error before
// any sweep runs, not an empty run that exits 0.
func TestPrintFiguresRejects(t *testing.T) {
	cfg := precinct.ExperimentConfig{Seed: 1}
	if err := printFigures(io.Discard, "12", "table", cfg); err == nil || !strings.Contains(err.Error(), "6-8") {
		t.Errorf("unknown id: err = %v, want one listing the ids", err)
	}
	if err := printFigures(io.Discard, "9b", "json", cfg); err == nil || !strings.Contains(err.Error(), "json") {
		t.Errorf("unknown format: err = %v, want one naming it", err)
	}
}
