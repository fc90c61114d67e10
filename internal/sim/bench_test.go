package sim

// Per-layer replay benchmarks, the bottom two rungs of the ladder the
// root package's replay benchmarks sit on:
//
//	word:   internal/coset BenchmarkSWARBestWord / BenchmarkSWARApplyWord
//	line:   root BenchmarkEncodeInto (codec hot path, no simulation state)
//	shard:  BenchmarkShardApply / BenchmarkShardApplyRun (this file)
//	engine: BenchmarkEngineRun (this file), root BenchmarkReplaySerial /
//	        BenchmarkReplayParallelScaling (full dispatch pipeline)
//
// Comparing adjacent layers attributes regressions: a shard slowdown
// with flat line cost is accounting overhead; an engine slowdown with
// flat shard cost is dispatch overhead.

import (
	"fmt"
	"testing"
	"time"

	"wlcrc/internal/core"
	"wlcrc/internal/fault"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// benchShard builds a warmed shard and routed request set for b,
// mirroring the alloc tests' fixture: every address pre-written once so
// the measured loop is the steady-state rewrite path.
func benchShard(b *testing.B, scheme string, opts Options) (*shard, []routedReq) {
	b.Helper()
	sch, err := core.NewScheme(scheme, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if opts.MaxVnRIterations == 0 {
		opts.MaxVnRIterations = 16
	}
	u := newShard(&opts, sch, nil, nil)
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	rs := routedBatch(trace.Record(workload.NewGenerator(p, 64, 11), 256).Reqs)
	for i := range rs {
		if _, err := u.applyRun(rs[i : i+1]); err != nil {
			b.Fatal(err)
		}
	}
	return u, rs
}

// benchShardSchemes spans the cost spectrum: plain differential write,
// the paper's headline scheme, and a counter-keyed encrypted scheme.
var benchShardSchemes = []string{"Baseline", "WLCRC-16", "VCC-4"}

// BenchmarkShardApply measures the shard layer one request at a time —
// runs of length one, so no encode batching.
func BenchmarkShardApply(b *testing.B) {
	for _, scheme := range benchShardSchemes {
		b.Run(scheme, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Verify = false
			u, rs := benchShard(b, scheme, opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(rs)
				if _, err := u.applyRun(rs[k : k+1]); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(64)
		})
	}
}

// BenchmarkShardApplyRun measures the same work through the batch-encode
// path the Engine workers run — the delta against BenchmarkShardApply is
// what batching the scheme calls buys at the shard layer.
func BenchmarkShardApplyRun(b *testing.B) {
	for _, scheme := range benchShardSchemes {
		b.Run(scheme, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Verify = false
			u, rs := benchShard(b, scheme, opts)
			if _, err := u.applyRun(rs); err != nil { // warm run buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := u.applyRun(rs); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(64 * len(rs)))
		})
	}
}

// engineBenchWrites sizes the engine-layer fixture: long enough that
// one run of WLCRC-16 takes over 100 ms at 4 workers on a 2-CPU host, so
// a run's time measures the code rather than scheduler noise.
const engineBenchWrites = 60000

// engineBenchSource is the engine-layer fixture: the gcc profile over a
// 1024-line footprint.
func engineBenchSource(b *testing.B) *trace.SliceSource {
	b.Helper()
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	return trace.Record(workload.NewGenerator(p, 1024, 17), engineBenchWrites)
}

// runEngineBench replays src through a fresh WLCRC-16 engine per
// benchmark and reports writes/s.
func runEngineBench(b *testing.B, opts Options, src *trace.SliceSource) {
	e := NewEngine(opts, schemesForBench(b, "WLCRC-16")...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Rewind()
		if err := e.Run(src, 0); err != nil {
			b.Fatal(err)
		}
	}
	writes := float64(len(src.Reqs) * b.N)
	b.ReportMetric(writes/b.Elapsed().Seconds(), "writes/s")
}

// BenchmarkEngineRun measures the full engine layer at fixed small
// worker counts on a single-scheme load, isolating dispatch overhead
// from the root package's multi-scheme replay benchmarks.
func BenchmarkEngineRun(b *testing.B) {
	src := engineBenchSource(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Verify = false
			opts.Workers = workers
			runEngineBench(b, opts, src)
		})
	}
}

// BenchmarkEngineRunFaults measures the fault model's replay cost at
// the engine layer, 4 workers on the engine fixture.
//
// "gate" times two engines per iteration: "plain", which carries no
// fault configuration, and "off", which carries the full "on"
// configuration with Enabled false. It reports their mean times as
// plain-ns/run and off-ns/run, and the benchguard fault_free_pr8 gate
// holds the median off/plain ratio over -count 10 or more within 5%
// (the stuck-map check must compile out to one nil test per request).
// The two sides run inside one sub-benchmark, alternating which goes
// first, because -count repeats each sub-benchmark back to back: as
// separate sub-benchmarks a slow phase of a shared host would land on
// one side of the ratio only.
//
// "on" pays for live stuck maps, wear thresholds and repair
// classification; it is recorded, not gated.
func BenchmarkEngineRunFaults(b *testing.B) {
	src := engineBenchSource(b)
	on := fault.Config{
		Enabled:         true,
		CellEndurance:   1 << 20, // wear tracked, onset never fires
		EnduranceSpread: 0.3,
		Static:          fault.RandomStatic(3, 64, 1024),
	}
	optsFor := func(fc fault.Config) Options {
		opts := DefaultOptions()
		opts.Verify = false
		opts.Workers = 4
		opts.Faults = fc
		return opts
	}
	off := on
	off.Enabled = false
	b.Run("gate", func(b *testing.B) {
		engines := [2]*Engine{
			NewEngine(optsFor(fault.Config{}), schemesForBench(b, "WLCRC-16")...),
			NewEngine(optsFor(off), schemesForBench(b, "WLCRC-16")...),
		}
		var spent [2]time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2
				src.Rewind()
				start := time.Now()
				if err := engines[side].Run(src, 0); err != nil {
					b.Fatal(err)
				}
				spent[side] += time.Since(start)
			}
		}
		b.ReportMetric(float64(spent[0].Nanoseconds())/float64(b.N), "plain-ns/run")
		b.ReportMetric(float64(spent[1].Nanoseconds())/float64(b.N), "off-ns/run")
	})
	b.Run("on", func(b *testing.B) {
		runEngineBench(b, optsFor(on), src)
	})
}

func schemesForBench(b *testing.B, names ...string) []core.Scheme {
	b.Helper()
	out := make([]core.Scheme, len(names))
	for i, n := range names {
		s, err := core.NewScheme(n, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		out[i] = s
	}
	return out
}
