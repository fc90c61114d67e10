package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"wlcrc/internal/core"
	"wlcrc/internal/sim"
	"wlcrc/internal/stats"
	"wlcrc/internal/trace"
)

// replayInputs is the set-up shared by the untraced and the traced run
// of a replay workload: the generated trace file and the reference
// result every measured replay must reproduce.
type replayInputs struct {
	spec replaySpec
	seed uint64
	path string
	// writes is requests x schemes, the scheme-writes of one replay.
	writes int
	// ref is the Workers=1, ingest-off replay of the trace and refJSON
	// its per-scheme encoding.
	ref     []sim.Metrics
	refJSON [][]byte
}

// prepareReplay generates the workload's trace and computes the
// reference replay, and runs the checks that apply to the reference
// itself: decode errors, the golden digests, and on the lifetime
// workload the fault lifecycle. None of this is timed. seed drives the
// trace and the engine; the golden digests apply when the benchmark
// runs with the default seed.
func prepareReplay(spec replaySpec, cfg config, seed uint64) (*replayInputs, error) {
	in := &replayInputs{
		spec:   spec,
		seed:   seed,
		path:   filepath.Join(cfg.work, spec.name+".wlct"),
		writes: spec.requests * len(spec.schemes),
	}
	if err := writeTrace(in.path, spec.requests, spec.footprint, seed, spec.encrypted); err != nil {
		return nil, err
	}
	runtime.GC()
	ref, err := replayOnce(in.path, spec.schemes, spec.serialOptions(seed))
	if err != nil {
		return nil, err
	}
	in.ref = ref.metrics
	if in.refJSON, err = metricsJSON(in.ref); err != nil {
		return nil, err
	}
	for i, n := range in.spec.schemes {
		fmt.Fprintf(cfg.out, "digest %s %s %s\n", spec.name, n, digest(in.refJSON[i]))
	}
	if err := checkDecodeErrors(in.ref); err != nil {
		return in, err
	}
	if spec.lifetime {
		if err := checkLifetime(in.ref); err != nil {
			return in, err
		}
	}
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		return in, err
	}
	checked, err := checkGolden(golden, spec.name, cfg.seed, in.spec.schemes, in.refJSON)
	if err != nil {
		return in, err
	}
	if checked {
		fmt.Fprintf(cfg.out, "golden digests match for seed %d\n", cfg.seed)
	} else {
		fmt.Fprintf(cfg.out, "golden digests not checked (seed %d, default build %v)\n", cfg.seed, goldenBuild())
	}
	return in, nil
}

// replayRun is the timing of one replay of a trace file on a fresh
// engine: the program's own set-up, the Run call and the metric merge.
type replayRun struct {
	metrics []sim.Metrics
	setup   time.Duration // OpenMapped + scheme construction + NewEngine
	engine  time.Duration // NewEngine alone
	run     time.Duration // Engine.Run
	merge   time.Duration // Engine.Metrics
	allocs  uint64        // heap allocations during Run
}

// replayOnce replays the whole trace file at path through a fresh
// engine. The file is finite, so Run(src, 0) ends at its last record.
func replayOnce(path string, names []string, opts sim.Options) (replayRun, error) {
	var r replayRun
	t0 := time.Now()
	src, err := trace.OpenMapped(path)
	if err != nil {
		return r, err
	}
	defer src.Close()
	schemes, err := buildSchemes(names)
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	eng := sim.NewEngine(opts, schemes...)
	t2 := time.Now()
	a0 := mallocs()
	t3 := time.Now()
	runErr := eng.Run(src, 0)
	t4 := time.Now()
	r.allocs = mallocs() - a0
	r.metrics = eng.Metrics()
	t5 := time.Now()
	r.setup, r.engine, r.run, r.merge = t2.Sub(t0), t2.Sub(t1), t4.Sub(t3), t5.Sub(t4)
	if runErr != nil {
		var deg *sim.DegradedError
		if errors.As(runErr, &deg) {
			return r, checkFailed("replay degraded: %v", runErr)
		}
		return r, fmt.Errorf("replay: %w", runErr)
	}
	if err := src.Err(); err != nil {
		return r, fmt.Errorf("trace: %w", err)
	}
	return r, nil
}

// runReplay returns the runner of a replay workload.
func runReplay(spec replaySpec) func(config) (*result, error) {
	return func(cfg config) (*result, error) {
		res := newResult()
		in, err := prepareReplay(spec, cfg, cfg.seed)
		if err != nil {
			return res, err
		}
		if cfg.traced {
			setServiceZeros(res)
			return res, tracedReplay(in, cfg, res, cfg.seconds)
		}
		return res, measureReplay(in, cfg, res)
	}
}

// measureReplay is the untraced run. Each iteration is one job: open
// and map the trace, build the schemes, NewEngine, Run, Metrics — what
// a replay job does minus the HTTP and store layers. Every iteration's
// metrics must equal the reference byte for byte. One warm-up job runs
// first and is not counted: it grows the heap to its steady size. Every
// job starts after a forced GC, from the same heap state, as a job in a
// fresh process would.
//
// The throughputs are best-of-N: writes_per_s is the fastest job's
// rate and jobs_per_s the inverse of the fastest job's latency. On a
// shared host, co-tenant load slows whole phases of a run by up to 2x;
// the median job then measures the share of slow phases in the window,
// while the fastest job measures the program.
func measureReplay(in *replayInputs, cfg config, res *result) error {
	opts := in.spec.options(in.seed)
	runtime.GC()
	if _, err := replayOnce(in.path, in.spec.schemes, opts); err != nil {
		res.Attempted, res.Failed = 1, 1
		return err
	}
	var setup, rate, allocs, job samples
	deadline := time.Now().Add(cfg.seconds)
	for time.Now().Before(deadline) || len(job) < 5 {
		res.Attempted++
		runtime.GC()
		r, err := replayOnce(in.path, in.spec.schemes, opts)
		if err != nil {
			res.Failed++
			return err
		}
		enc, err := metricsJSON(r.metrics)
		if err != nil {
			return err
		}
		if err := checkDecodeErrors(r.metrics); err != nil {
			return err
		}
		if err := checkSame(in.spec.name, enc, in.refJSON, in.spec.schemes); err != nil {
			return err
		}
		setup.addDur(r.setup)
		rate.add(float64(in.writes) / r.run.Seconds())
		allocs.add(float64(r.allocs) / float64(in.writes))
		job.addDur(r.setup + r.run + r.merge)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	res.set("setup_s", "s", setup.median())
	res.set("writes_per_s", "1/s", rate.quantile(1))
	res.set("allocs_per_write", "count", allocs.median())
	res.set("peak_rss_mb", "MiB", rss)
	res.set("jobs_per_s", "1/s", 1/job.quantile(0))
	res.set("job_p50_ms", "ms", job.median()*1e3)
	res.set("job_p99_ms", "ms", job.quantile(0.99)*1e3)
	fmt.Fprintf(cfg.out, "%s: %d jobs of %d requests x %d schemes (%d scheme-writes each); job latency p50/p99 over %d samples; "+
		"per-job writes/s p25 %.0f p50 %.0f p75 %.0f max %.0f\n",
		in.spec.name, len(job), in.spec.requests, len(in.spec.schemes), in.writes, len(job),
		rate.quantile(0.25), rate.median(), rate.quantile(0.75), rate.quantile(1))
	if in.spec.name == evalSerial.name {
		printModelAccuracy(cfg, in.ref)
	}
	return nil
}

// printModelAccuracy prints the simulated headline figures beside the
// paper's (Seyedzadeh et al., HPCA'18). The line is informational and
// not gated: on one synthetic gcc trace the model is otherwise
// unvalidated against the paper's Simics traces.
func printModelAccuracy(cfg config, ms []sim.Metrics) {
	get := func(name string) sim.Metrics {
		for _, m := range ms {
			if m.Scheme == name {
				return m
			}
		}
		return sim.Metrics{}
	}
	wlcrc := get("WLCRC-16")
	fmt.Fprintf(cfg.out, "model accuracy (not gated; the model is otherwise unvalidated): "+
		"WLCRC-16 energy vs COC+4cosets %s (paper 39%%), vs Baseline %s (paper 52%%), WLC coverage %s (paper >91%%)\n",
		stats.Percent(stats.Improvement(wlcrc.AvgEnergy(), get("COC+4cosets").AvgEnergy())),
		stats.Percent(stats.Improvement(wlcrc.AvgEnergy(), get("Baseline").AvgEnergy())),
		stats.Percent(wlcrc.CompressedFraction()))
}

// schemeKey turns a scheme name into a metric-name component: metric
// names allow letters, digits, '_', '.' and '-' only.
func schemeKey(name string) string {
	b := []byte(name)
	out := b[:0]
	for _, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-':
			out = append(out, c)
		case c == '+' || c == '(':
			out = append(out, '_')
		}
	}
	return string(out)
}

// allSchemes is every scheme some workload replays, in a fixed order:
// the per-scheme per-layer metrics are reported for each of them on
// every workload (0 where the workload does not run the scheme).
func allSchemes() []string {
	return append(core.EvaluationSchemes(), "VCC-4", "Enc(WLCRC-16)")
}
