package sim

import (
	"testing"

	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
	"wlcrc/internal/workload"
)

func TestDisturbedCellsSampling(t *testing.T) {
	dm := pcm.DefaultDisturb()
	states := []pcm.State{pcm.S3, pcm.S1, pcm.S3, pcm.S2}
	changed := []bool{false, true, false, false}
	rnd := prng.New(5)
	counts := map[int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		for _, c := range dm.DisturbedCells(states, changed, rnd) {
			counts[c]++
		}
	}
	// Cell 0 (S3, exposed): ~27.6%. Cell 2 (S3, exposed): ~27.6%.
	// Cell 1 written, cell 3 not exposed (neighbor 2 idle): never.
	if counts[1] != 0 || counts[3] != 0 {
		t.Errorf("non-disturbable cells hit: %v", counts)
	}
	for _, c := range []int{0, 2} {
		rate := float64(counts[c]) / n
		if rate < 0.25 || rate > 0.31 {
			t.Errorf("cell %d rate %.3f, want ~0.276", c, rate)
		}
	}
}

func TestVnREliminatesErrorsWithinFiveIterations(t *testing.T) {
	// The paper: "write disturbance errors can be completely removed if
	// 3-5 iterations of VnR are used."
	opts := DefaultOptions()
	opts.InjectFaults = true
	opts.Seed = 11
	s := newSerialEngine(opts, schemesForTest(t, "Baseline", "WLCRC-16")...)
	p, _ := workload.ProfileByName("lesl") // most disturbance-prone
	if err := s.Run(&workload.Limited{Src: workload.NewGenerator(p, 128, 9), N: 2000}, 0); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Metrics() {
		if m.VnR.InjectedErrors == 0 {
			t.Errorf("%s: no faults injected on lesl", m.Scheme)
		}
		if m.VnR.Residual != 0 {
			t.Errorf("%s: %d residual errors after VnR", m.Scheme, m.VnR.Residual)
		}
		if m.VnR.RestoreWrites != m.VnR.InjectedErrors {
			t.Errorf("%s: restored %d != injected %d",
				m.Scheme, m.VnR.RestoreWrites, m.VnR.InjectedErrors)
		}
		// The paper: 3-5 VnR iterations remove all errors in practice;
		// the average sits well below that.
		if m.AvgVnRIterations() <= 0 || m.AvgVnRIterations() > 3 {
			t.Errorf("%s: avg VnR iterations = %.2f, want (0, 3]",
				m.Scheme, m.AvgVnRIterations())
		}
		t.Logf("%-10s injected %d, restores %d, avg iters %.3f, max iters %d, restore energy %.0f pJ total",
			m.Scheme, m.VnR.InjectedErrors, m.VnR.RestoreWrites,
			m.AvgVnRIterations(), m.VnR.MaxIterations, m.VnR.RestoreEnergyPJ)
	}
}

func TestVnRRestoreEnergySmallVsWriteEnergy(t *testing.T) {
	// VnR repairs a handful of cells per write; its energy must be a
	// small fraction of the programming energy (the paper argues the
	// bandwidth/energy effect is limited).
	opts := DefaultOptions()
	opts.InjectFaults = true
	opts.Seed = 3
	s := newSerialEngine(opts, schemesForTest(t, "WLCRC-16")...)
	p, _ := workload.ProfileByName("zeus")
	if err := s.Run(&workload.Limited{Src: workload.NewGenerator(p, 128, 4), N: 2000}, 0); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()[0]
	if frac := m.VnR.RestoreEnergyPJ / m.Energy.Energy(); frac > 0.25 {
		t.Errorf("VnR energy is %.1f%% of write energy, implausibly high", 100*frac)
	}
}

func TestVnRDisabledByDefault(t *testing.T) {
	s := newSerialEngine(DefaultOptions(), schemesForTest(t, "Baseline")...)
	p, _ := workload.ProfileByName("gcc")
	if err := s.Run(&workload.Limited{Src: workload.NewGenerator(p, 64, 1), N: 200}, 0); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics()[0]; m.VnR.InjectedErrors != 0 || m.VnR.Iterations != 0 {
		t.Errorf("VnR ran without InjectFaults: %+v", m.VnR)
	}
}
