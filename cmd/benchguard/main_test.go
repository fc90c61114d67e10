package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wlcrc/internal/store"
)

// TestMeasuredFromStore exercises the -from-store source: the latest
// point of the named series — by timestamp, with append order breaking
// ties — must come back verbatim as the measured map.
func TestMeasuredFromStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pts := []store.SeriesPoint{
		{Name: "ingest", JobID: "a", Unix: 100, Values: map[string]float64{"reader": 300000, "mapped": 200000}},
		{Name: "ingest", JobID: "b", Unix: 300, Values: map[string]float64{"reader": 309412, "mapped": 40380, "batch": 64717}},
		{Name: "ingest", JobID: "c", Unix: 200, Values: map[string]float64{"reader": 1, "mapped": 1}},
		{Name: "other", JobID: "d", Unix: 900, Values: map[string]float64{"x": 1}},
	}
	for _, p := range pts {
		if err := st.PutSeries(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	got := measured(dir, "", "ingest", nil)
	if want := pts[1].Values; !reflect.DeepEqual(got, want) {
		t.Fatalf("measured = %v, want the Unix=300 point %v", got, want)
	}

	// An explicit -series name overrides the mode default.
	got = measured(dir, "other", "ingest", nil)
	if want := pts[3].Values; !reflect.DeepEqual(got, want) {
		t.Fatalf("measured(other) = %v, want %v", got, want)
	}
}

// TestMeasuredParsesInput covers the default (no -from-store) source:
// bench text through the mode's parser, averaged across -count repeats.
// The parser records each line under both the suffix-stripped and the
// verbatim key (the "-N" GOMAXPROCS decoration is locally ambiguous);
// only the stripped keys match what the gates look up.
func TestMeasuredParsesInput(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"goos: linux",
		"BenchmarkIngest/reader-2 100 300000 ns/op",
		"BenchmarkIngest/reader-2 100 310000 ns/op",
		"BenchmarkIngest/mapped-2 100 40000 ns/op",
		"PASS",
	}, "\n"))
	got, err := parseIngestBench(in)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"reader": 305000, "reader-2": 305000,
		"mapped": 40000, "mapped-2": 40000,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseIngestBench = %v, want %v", got, want)
	}

	in = strings.NewReader(strings.Join([]string{
		"BenchmarkEngineRun/workers=4-2 10 6000000 ns/op",
		"BenchmarkEngineRunFaults/gate-2 4 240000000 ns/op 121000000 off-ns/run 119000000 plain-ns/run",
		"BenchmarkEngineRunFaults/gate-2 4 250000000 ns/op 124000000 off-ns/run 126000000 plain-ns/run",
		"BenchmarkEngineRunFaults/on-2 4 180000000 ns/op 333000 writes/s",
		"BenchmarkEngineRunFaults/on-2 4 200000000 ns/op 300000 writes/s",
	}, "\n"))
	got, err = parseFaultFreeBench(in)
	if err != nil {
		t.Fatal(err)
	}
	want = map[string]float64{
		"plain/0": 119000000, "off/0": 121000000,
		"plain/1": 126000000, "off/1": 124000000,
		"on": 190000000,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseFaultFreeBench = %v, want %v", got, want)
	}
}

// TestCheckFaultFree covers the fault-free gate's three outcomes on
// paired samples: within the gate, a median regression, and a spread
// too wide to judge — plus too few samples.
func TestCheckFaultFree(t *testing.T) {
	b := &faultFreeBaseline{GateRatio: 1.05, MinCount: 10, MaxSpread: 0.10}
	samples := func(ratios ...float64) map[string]float64 {
		m := map[string]float64{}
		for i, r := range ratios {
			m[fmt.Sprintf("plain/%d", i)] = 100e6
			m[fmt.Sprintf("off/%d", i)] = r * 100e6
		}
		return m
	}
	// One outlier sample cannot fail a healthy median.
	if _, err := checkFaultFree(b, samples(0.97, 1.01, 0.99, 1.02, 1.00, 0.98, 1.03, 1.00, 0.99, 1.30)); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if _, err := checkFaultFree(b, samples(1.07, 1.08, 1.06, 1.09, 1.07, 1.08, 1.06, 1.07, 1.10, 1.08)); err == nil ||
		!strings.Contains(err.Error(), "regressed") {
		t.Fatalf("8%% leak: err = %v, want a regression", err)
	}
	if _, err := checkFaultFree(b, samples(0.80, 1.20, 0.85, 1.15, 0.90, 1.10, 0.82, 1.18, 0.95, 1.02)); err == nil ||
		!strings.Contains(err.Error(), "unresolved") {
		t.Fatalf("noisy run: err = %v, want unresolved", err)
	}
	if _, err := checkFaultFree(b, samples(1, 1, 1)); err == nil || !strings.Contains(err.Error(), "at least 10") {
		t.Fatalf("3 samples: err = %v, want too few", err)
	}
}

// TestGuardSeriesDetectsRegression checks the geomean-normalized encode
// gate on plain maps — the shape both bench text and store series reduce
// to. A uniform 2x slowdown cancels out; a single-scheme 2x trips it.
func TestGuardSeriesDetectsRegression(t *testing.T) {
	base := map[string]float64{"A": 100, "B": 200, "C": 400}
	uniform := map[string]float64{"A": 200, "B": 400, "C": 800}
	if guardSeries("test", base, uniform, 0.10, false) {
		t.Fatal("uniformly slower run must not trip the gate")
	}
	skewed := map[string]float64{"A": 100, "B": 200, "C": 800}
	if !guardSeries("test", base, skewed, 0.10, false) {
		t.Fatal("single-scheme regression must trip the gate")
	}
}
