package main

import (
	"fmt"
	"os"

	"wlcrc/internal/core"
	"wlcrc/internal/fault"
	"wlcrc/internal/sim"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// replaySpec is one replay workload: the trace the benchmark generates
// and the engine configuration it replays the trace with.
type replaySpec struct {
	name    string
	schemes []string
	// requests and footprint size the generated gcc trace; encrypted
	// writes it in counter-mode encrypted form.
	requests  int
	footprint int
	encrypted bool
	// parallel replays at Workers = nproc with ingest on auto; otherwise
	// Workers = 1 with ingest off.
	parallel bool
	// lifetime turns on wear tracking, sampled disturbance and the
	// stuck-at fault model.
	lifetime bool
}

// The three replay workloads. Sizes are chosen so one replay takes
// roughly 0.1-1 s on a 2-CPU host: long enough that per-run fixed costs
// do not dominate, short enough that a run of --seconds holds tens to
// hundreds of replays.
var (
	// evalSerial is the Figure 8 replay: the eight evaluation schemes,
	// serial. Encode, settle and the arena do nearly all the work; the
	// 512-line footprint keeps the arena cache-resident.
	evalSerial = replaySpec{
		name:      "eval-serial",
		schemes:   core.EvaluationSchemes(),
		requests:  4096,
		footprint: 512,
	}
	// encryptedParallel replays ciphertext over a 64k-line footprint:
	// the VCC counter path, the scalar line store of counter schemes,
	// routing, dispatch and ingest, with a working set far beyond the
	// caches. Ciphertext sends WLCRC-16 down its raw fallback.
	encryptedParallel = replaySpec{
		name:      "encrypted-parallel",
		schemes:   []string{"VCC-4", "Enc(WLCRC-16)", "WLCRC-16"},
		requests:  131072,
		footprint: 65536,
		encrypted: true,
		parallel:  true,
	}
	// lifetimeParallel is the only workload that runs the fault, ECC and
	// wear layers. 80k requests at endurance 256 make every scheme
	// detect stuck cells, ECC-correct and retire lines while staying
	// below the 25% retired-line threshold (at 100k requests some
	// schemes come within a few lines of it; at 200k the run degrades).
	lifetimeParallel = replaySpec{
		name:      "lifetime-parallel",
		schemes:   []string{"Baseline", "6cosets", "COC+4cosets", "WLCRC-16"},
		requests:  80000,
		footprint: 512,
		parallel:  true,
		lifetime:  true,
	}
)

// options returns the engine options the workload is measured with.
func (s replaySpec) options(seed uint64) sim.Options {
	o := sim.DefaultOptions()
	o.Seed = seed
	if s.parallel {
		o.Workers = nproc()
	} else {
		o.Workers = 1
		o.IngestRouters = -1
	}
	if s.lifetime {
		o.TrackWear = true
		o.SampleDisturb = true
		o.Faults = fault.Config{Enabled: true, CellEndurance: 256, EnduranceSpread: 0.5}
	}
	return o
}

// serialOptions returns the reference configuration: the same model
// settings replayed by one worker with the ingest stage off.
func (s replaySpec) serialOptions(seed uint64) sim.Options {
	o := s.options(seed)
	o.Workers = 1
	o.IngestRouters = -1
	return o
}

// buildSchemes constructs the named schemes with the default model.
func buildSchemes(names []string) ([]core.Scheme, error) {
	out := make([]core.Scheme, 0, len(names))
	for _, n := range names {
		s, err := core.NewScheme(n, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// writeTrace generates n requests of the gcc profile over footprint
// lines from seed, optionally counter-mode encrypted, into a trace file
// at path. The file is finite, so replaying it with Run(src, 0) ends.
func writeTrace(path string, n, footprint int, seed uint64, encrypted bool) error {
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		return fmt.Errorf("gcc profile missing")
	}
	var src trace.Source = workload.NewGenerator(p, footprint, seed)
	if encrypted {
		src = workload.Encrypted(src, 0)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	for i := 0; i < n; i++ {
		req, _ := src.Next()
		if err := w.Write(req); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
