package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wlcrc/internal/sim"
)

// mkMetrics builds a distinguishable metrics value for round-trip
// checks (the scheme name and a couple of counters are enough — full
// metric fidelity is covered by the sim JSON tests).
func mkMetrics(scheme string, writes int, energy float64) sim.Metrics {
	m := sim.Metrics{Scheme: scheme, Writes: writes}
	m.Energy.EnergyData = energy
	m.Energy.UpdatedData = writes * 3
	m.EnergyHist.Merge(m.EnergyHist) // keep the zero histogram inert
	return m
}

func mkJob(id, label, workload string, schemes ...string) JobRecord {
	var results []WorkloadResult
	var ms []sim.Metrics
	for i, s := range schemes {
		ms = append(ms, mkMetrics(s, 100+i, float64(1000*(i+1))))
	}
	results = append(results, WorkloadResult{Workload: workload, Metrics: ms})
	return JobRecord{
		ID:        id,
		Label:     label,
		State:     "done",
		Created:   42,
		Finished:  43,
		Workloads: []string{workload},
		Schemes:   schemes,
		Spec:      json.RawMessage(`{"writes":100}`),
		Results:   results,
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1 := mkJob("j1", "base", "gcc", "Baseline", "WLCRC-16")
	// Specs are stored opaquely, so a record carrying a field the
	// server no longer accepts (ingest_routers) still loads verbatim.
	j1.Spec = json.RawMessage(`{"writes":100,"workers":2,"ingest_routers":2}`)
	j2 := mkJob("j2", "enc", "lbm", "VCC-8")
	for _, j := range []JobRecord{j1, j2} {
		if err := s.PutJob(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutSeries(SeriesPoint{Name: "encode", JobID: "j1", Unix: 7, Values: map[string]float64{"WLCRC-16": 1466}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Jobs(); len(got) != 2 {
		t.Fatalf("Jobs() = %d records, want 2", len(got))
	}
	got, ok := r.Job("j1")
	if !ok {
		t.Fatal("job j1 missing after reopen")
	}
	if !reflect.DeepEqual(got, j1) {
		t.Errorf("job j1 changed across restart:\n got %+v\nwant %+v", got, j1)
	}
	pts := r.Series("encode")
	if len(pts) != 1 || pts[0].Values["WLCRC-16"] != 1466 {
		t.Errorf("series encode = %+v, want one point with WLCRC-16=1466", pts)
	}
	if names := r.SeriesNames(); len(names) != 1 || names[0] != "encode" {
		t.Errorf("SeriesNames = %v", names)
	}
}

func TestJSONLQueries(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutJob(mkJob("j1", "base", "gcc", "Baseline", "WLCRC-16")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(mkJob("j2", "enc", "gcc", "WLCRC-16")); err != nil {
		t.Fatal(err)
	}

	rows := s.Results(Query{Scheme: "wlcrc-16"}) // case-insensitive
	if len(rows) != 2 {
		t.Fatalf("Results(scheme=WLCRC-16) = %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Scheme != "WLCRC-16" {
			t.Errorf("row scheme = %q", r.Scheme)
		}
	}
	if rows := s.Results(Query{Scheme: "WLCRC-16", Label: "enc"}); len(rows) != 1 || rows[0].JobID != "j2" {
		t.Errorf("Results(scheme+label) = %+v, want the single j2 row", rows)
	}
	if rows := s.Results(Query{Workload: "lbm"}); len(rows) != 0 {
		t.Errorf("Results(workload=lbm) = %d rows, want 0", len(rows))
	}

	// Latest record per ID wins: a terminal rewrite supersedes the
	// pending stub without duplicating the listing.
	upd := mkJob("j1", "base", "gcc", "Baseline")
	upd.State = "canceled"
	if err := s.PutJob(upd); err != nil {
		t.Fatal(err)
	}
	if got := s.Jobs(); len(got) != 2 || got[0].State != "canceled" {
		t.Errorf("after rewrite: %d jobs, j1 state %q", len(got), got[0].State)
	}
}

// TestJSONLCrashRecovery tears the tail off the newest segment — the
// on-disk state a crash mid-append leaves behind — and checks that
// reopening keeps every complete record, drops the torn line, and
// appends cleanly afterwards.
func TestJSONLCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(mkJob("j1", "", "gcc", "Baseline")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(mkJob("j2", "", "gcc", "WLCRC-16")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, segmentPrefix+"*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written (err=%v)", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"job","job":{"id":"torn","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if got := r.Jobs(); len(got) != 2 {
		t.Fatalf("after recovery: %d jobs, want 2", len(got))
	}
	if _, ok := r.Job("torn"); ok {
		t.Error("torn record resurrected")
	}
	// The recovered store keeps accepting writes, and they survive yet
	// another reopen (new segment, old tail untouched).
	if err := r.PutJob(mkJob("j3", "", "lbm", "VCC-8")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Jobs(); len(got) != 3 {
		t.Fatalf("after recovery+append+reopen: %d jobs, want 3", len(got))
	}
}

// TestJSONLCorruptMiddleFails: corruption anywhere but the torn tail is
// a real integrity problem and must surface, not be silently skipped.
func TestJSONLCorruptMiddleFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(mkJob("j1", "", "gcc", "Baseline")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segmentPrefix+"*"))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], append([]byte("garbage not json\n"), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open succeeded on a segment with corruption before valid records")
	}
}

func TestJSONLSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.maxBytes = 512 // force rotation quickly
	for i := 0; i < 8; i++ {
		if err := s.PutJob(mkJob(string(rune('a'+i)), "", "gcc", "Baseline")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segmentPrefix+"*"))
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v", segs)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Jobs(); len(got) != 8 {
		t.Fatalf("after rotation: %d jobs, want 8", len(got))
	}
}
