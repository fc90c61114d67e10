package main

import (
	"fmt"
	"path/filepath"
	"time"

	"wlcrc/internal/sim"
)

// layerStats accumulates the traced run's per-layer samples: one value
// per traced pass (or per engine run), summarized by the median.
type layerStats struct {
	open, traced, untraced           samples // trace.OpenMapped; walk pass wall time
	decodePerReq                     samples
	perWrite                         [numLayers]samples // ns per call, all lanes
	perScheme                        map[string]*[numLayers]samples
	spanNS                           samples // summed layer spans per pass
	serialRun, parallelRun, faultOff samples // Engine.Run wall time
	engineSetup, merge               samples
}

// tracedReplay is the traced run of a replay workload. It cycles until
// window has passed (at least once) through: a serial engine replay, a
// parallel one, on the lifetime workload a serial faults-off replay,
// and a traced and an untraced layer walk. The walk's totals must match
// the engine's metrics for the same trace; otherwise the breakdown
// would describe a different program.
func tracedReplay(in *replayInputs, cfg config, res *result, window time.Duration) error {
	serial := in.spec.serialOptions(in.seed)
	parallel := in.spec.options(in.seed)
	parallel.Workers, parallel.IngestRouters = nproc(), 0
	// The walk does not model the fault repair pipeline, so it is held
	// against a faults-off replay; fault cost is measured as the
	// on/off difference and from the program's own counters.
	walkOpts := serial
	walkOpts.Faults.Enabled = false

	var ls layerStats
	ls.perScheme = map[string]*[numLayers]samples{}
	var walkRef []sim.Metrics
	var spans *tracer
	lines := 0
	// Stop before a cycle that would overrun the window by more than
	// half its own length.
	began := time.Now()
	var cycle time.Duration
	for n := 0; n == 0 || time.Since(began)+cycle/2 < window; n++ {
		c0 := time.Now()
		r, err := replayOnce(in.path, in.spec.schemes, serial)
		if err != nil {
			return err
		}
		ls.serialRun.addDur(r.run)
		ls.engineSetup.addDur(r.engine)
		ls.merge.addDur(r.merge)
		if r, err = replayOnce(in.path, in.spec.schemes, parallel); err != nil {
			return err
		}
		ls.parallelRun.addDur(r.run)
		ls.engineSetup.addDur(r.engine)
		ls.merge.addDur(r.merge)
		if in.spec.lifetime {
			if r, err = replayOnce(in.path, in.spec.schemes, walkOpts); err != nil {
				return err
			}
			ls.faultOff.addDur(r.run)
			if walkRef == nil {
				walkRef = r.metrics
			}
		} else {
			walkRef = in.ref
		}

		t := newTracer(len(in.spec.schemes))
		w, open, d, err := walkPass(in.path, in.spec.schemes, &walkOpts, walkRef, t)
		if err != nil {
			return err
		}
		if err := w.compare(walkRef, walkOpts.SampleDisturb); err != nil {
			return err
		}
		lines = w.arenaLines()
		ls.open.addDur(open)
		ls.traced.addDur(d)
		ls.add(t, in.spec.schemes)
		if spans == nil {
			spans = t
		}
		if _, _, d, err = walkPass(in.path, in.spec.schemes, &walkOpts, walkRef, nil); err != nil {
			return err
		}
		ls.untraced.addDur(d)
		cycle = time.Since(c0)
	}
	if err := spans.writeSpans(filepath.Join(filepath.Dir(cfg.work), "spans-"+in.spec.name+".jsonl")); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	writes := float64(in.writes)
	res.set("trace.open_ms", "ms", ls.open.median()*1e3)
	res.set("trace.decode_ns_per_req", "ns", ls.decodePerReq.median())
	setLayerMetrics(res, &ls)
	res.set("arena.lines", "count", float64(lines))
	res.set("sim.merge_us", "us", ls.merge.median()*1e6)
	res.set("sim.engine_setup_ms", "ms", ls.engineSetup.median()*1e3)
	res.set("sim.worker_scaling_x", "ratio", div(ls.serialRun.median(), ls.parallelRun.median()))
	walkRun := ls.serialRun.median()
	if in.spec.lifetime {
		walkRun = ls.faultOff.median()
	}
	res.set("sim.unattributed_ns_per_write", "ns", (walkRun*1e9-ls.spanNS.median())/writes)
	res.set("bench.tracing_overhead_frac", "ratio", div(ls.traced.median(), ls.untraced.median())-1)
	setFaultMetrics(res, in, &ls)
	res.Attempted = len(ls.serialRun) + len(ls.parallelRun) + len(ls.faultOff)
	fmt.Fprintf(cfg.out, "%s traced: %d cycles; %d spans kept; walk totals match the engine\n",
		in.spec.name, len(ls.traced), len(spans.spans))
	return nil
}

// add folds one traced pass into the per-layer samples.
func (ls *layerStats) add(t *tracer, names []string) {
	ls.decodePerReq.add(div(float64(t.decNS), float64(t.decReq)))
	var ns [numLayers]float64
	var calls [numLayers]int64
	total := float64(t.decNS)
	for li, name := range names {
		ps := ls.perScheme[name]
		if ps == nil {
			ps = new([numLayers]samples)
			ls.perScheme[name] = ps
		}
		for l := layer(0); l < numLayers; l++ {
			d := t.layerNS(li, l)
			ns[l] += d
			calls[l] += t.calls[li][l]
			total += d
			ps[l].add(div(d, float64(t.calls[li][l])))
		}
	}
	for l := layer(0); l < numLayers; l++ {
		// Per write, across all schemes: a layer only some schemes
		// call (the arena, wear) is averaged over the calls it got.
		ls.perWrite[l].add(div(ns[l], float64(calls[l])))
	}
	ls.spanNS.add(total)
}

// setLayerMetrics reports the walk's per-layer and per-scheme costs.
// Schemes the workload does not replay report 0.
func setLayerMetrics(res *result, ls *layerStats) {
	res.set("pcm.diff_ns_per_write", "ns", ls.perWrite[layerDiff].median())
	res.set("pcm.disturb_ns_per_write", "ns", ls.perWrite[layerDisturb].median())
	res.set("arena.ensure_ns_per_write", "ns", ls.perWrite[layerEnsure].median())
	res.set("arena.commit_ns_per_write", "ns", ls.perWrite[layerCommit].median())
	res.set("stats.observe_ns_per_write", "ns", ls.perWrite[layerObserve].median())
	res.set("wear.record_ns_per_write", "ns", ls.perWrite[layerWear].median())
	for _, name := range allSchemes() {
		var enc, dec float64
		if ps := ls.perScheme[name]; ps != nil {
			enc, dec = ps[layerEncode].median(), ps[layerVerify].median()
		}
		res.set("core.encode_ns."+schemeKey(name), "ns", enc)
		res.set("core.verify_decode_ns."+schemeKey(name), "ns", dec)
	}
}

// setCompressedFrac reports each scheme's compression-gate ratio:
// writes that took the encoded path over writes attempted.
func setCompressedFrac(res *result, ms []sim.Metrics) {
	frac := map[string]float64{}
	for _, m := range ms {
		frac[m.Scheme] = m.CompressedFraction()
	}
	for _, name := range allSchemes() {
		res.set("core.compressed_frac."+schemeKey(name), "ratio", frac[name])
	}
}

// setFaultMetrics reports the fault layer on the lifetime workload and
// zeros elsewhere: the fault model is off there, so the layer is flat.
func setFaultMetrics(res *result, in *replayInputs, ls *layerStats) {
	setCompressedFrac(res, in.ref)
	var detected, corrected, retries, retriedOK, retired uint64
	for _, m := range in.ref {
		f := m.Faults
		detected += f.Detected
		corrected += f.CorrectedWrites
		retries += f.Retries
		retriedOK += f.RetriedOK
		retired += f.RetiredLines
	}
	writes := float64(in.writes)
	overhead := 0.0
	if in.spec.lifetime {
		overhead = (ls.serialRun.median() - ls.faultOff.median()) * 1e9 / writes
	}
	res.set("fault.overhead_ns_per_write", "ns", overhead)
	res.set("fault.detected_per_kwrite", "count", float64(detected)*1e3/writes)
	res.set("fault.ecc_corrected_per_kwrite", "count", float64(corrected)*1e3/writes)
	res.set("fault.retry_ok_frac", "ratio", div(float64(retriedOK), float64(retries)))
	res.set("fault.retired_lines", "count", float64(retired))
}
