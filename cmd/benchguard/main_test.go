package main

import (
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
		"BenchmarkEngineRun/workers=1-2 10 9000000 ns/op",
		"BenchmarkEngineRun/workers=4-2 10 6000000 ns/op",
		"BenchmarkEngineRunFaults/off-2 10 6100000 ns/op",
	}, "\n"))
	got, err = parseFaultFreeBench(in)
	if err != nil {
		t.Fatal(err)
	}
	if got["plain"] != 6000000 || got["off"] != 6100000 {
		t.Fatalf("parseFaultFreeBench = %v, want plain 6000000 (workers=4) and off 6100000", got)
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
