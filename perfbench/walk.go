package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"wlcrc/internal/arena"
	"wlcrc/internal/core"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
	"wlcrc/internal/sim"
	"wlcrc/internal/stats"
	"wlcrc/internal/trace"
	"wlcrc/internal/wear"
)

// layer names one public call of the replay write path.
type layer int

const (
	layerEnsure  layer = iota // arena.Lines.Ensure
	layerEncode               // EncodePlanesInto, or EncodeCtrFunc for counter schemes
	layerDiff                 // pcm DiffWriteMasks / DiffWriteMask
	layerObserve              // both metric histograms' Observe
	layerWear                 // wear.Dense RecordSlotMasks / RecordChanged
	layerDisturb              // pcm CountDisturbMasks / CountDisturb
	layerVerify               // DecodePlanesInto, or DecodeCtrFunc for counter schemes
	layerCommit               // the arena slot copy
	numLayers
)

var layerNames = [numLayers]string{
	"arena.ensure", "core.encode", "pcm.diff", "stats.observe",
	"wear.record", "pcm.disturb", "core.verify_decode", "arena.commit",
}

// span is one timed call. Times are nanoseconds since the tracer's
// epoch; Parent is the enclosing span's ID (0 for the pass root) and
// Req the trace request the call served (-1 for trace decode spans).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Scheme string `json:"scheme,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanSampleEvery keeps the spans of one request in this many, and
// maxSpans caps the kept spans, so span memory stays bounded for any
// trace length. Every call is timed and counted regardless.
const (
	spanSampleEvery = 64
	maxSpans        = 50000
)

// tracer times and counts every layer call of a walk and keeps a
// sample of the spans. A nil *tracer is the untraced walk: no clock
// reads, no spans, only the calls themselves.
type tracer struct {
	epoch  time.Time
	ns     [][numLayers]int64 // per lane
	calls  [][numLayers]int64
	decNS  int64
	decReq int64
	// clockNS is the calibrated duration of an empty span (two clock
	// reads); it is subtracted from every timed call.
	clockNS float64
	spans   []span
	nextID  int64
	// parent is the kept span the next layer spans belong to (0 when
	// none), and keepReq whether the current request's spans are kept.
	parent  int64
	keepReq bool
	req     int64
}

func newTracer(lanes int) *tracer {
	t := &tracer{
		epoch: time.Now(),
		ns:    make([][numLayers]int64, lanes),
		calls: make([][numLayers]int64, lanes),
	}
	const n = 1 << 16
	var sum int64
	for i := 0; i < n; i++ {
		s := t.now()
		sum += t.now() - s
	}
	t.clockNS = float64(sum) / n
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// keep stores a span while under the cap and returns its ID (0 when
// dropped).
func (t *tracer) keep(name, scheme string, parent, req, start, end int64) int64 {
	if len(t.spans) >= maxSpans {
		return 0
	}
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Name: name, Scheme: scheme, Req: req, Start: start, End: end})
	return t.nextID
}

// end sets the end time of a kept span.
func (t *tracer) end(id int64) {
	if id != 0 {
		t.spans[id-1].End = t.now() // IDs are 1-based slice positions
	}
}

// request marks the request the next layer calls serve; its spans are
// kept when it is sampled.
func (t *tracer) request(req int64) {
	t.req = req
	t.keepReq = req%spanSampleEvery == 0
}

// done records one layer call of lane that started at start.
func (t *tracer) done(lane int, l layer, scheme string, start int64) {
	end := t.now()
	t.ns[lane][l] += end - start
	t.calls[lane][l]++
	if t.keepReq && t.parent != 0 {
		t.keep(layerNames[l], scheme, t.parent, t.req, start, end)
	}
}

// layerNS returns lane's time in layer l with the clock cost of its
// spans removed.
func (t *tracer) layerNS(lane int, l layer) float64 {
	return float64(t.ns[lane][l]) - t.clockNS*float64(t.calls[lane][l])
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lane is one scheme's state in the layer walk: the same line store,
// codec entry points and accounting the engine's shard uses for the
// scheme, driven one request at a time on the calling goroutine.
type lane struct {
	name        string
	total, data int
	opts        *sim.Options
	sampler     pcm.Sampler

	// Plane path, when the scheme has a plane codec (as in the engine).
	plane core.PlaneScheme
	gateP func([]uint64) bool
	lines *arena.Lines
	dstP  []uint64
	masks []uint64

	// Scalar path of counter schemes: a map line store and the per-line
	// write counters.
	encode  func(dst, old []pcm.State, addr, ctr uint64, data *memline.Line)
	decode  func(cells []pcm.State, addr, ctr uint64, dst *memline.Line)
	gateC   func([]pcm.State) bool
	mem     map[uint64][]pcm.State
	ctrs    map[uint64]uint64
	spare   []pcm.State
	changed []bool

	wear *wear.Dense
	got  memline.Line

	// Totals, compared with the engine's Metrics after a pass.
	writes, compressed, decodeErrors int
	energy                           pcm.WriteStats
	disturb                          pcm.DisturbStats
	energyHist, updatedHist          stats.Histogram
}

// walker replays a trace through a set of lanes, serially, calling the
// public functions of each layer in the engine's order.
type walker struct {
	lanes []*lane
	buf   []trace.Request
}

// newWalker builds a fresh walk state. ref supplies the histogram
// bucket widths the engine uses, so the walk's histograms are
// comparable bucket for bucket.
func newWalker(schemes []core.Scheme, opts *sim.Options, ref []sim.Metrics) *walker {
	w := &walker{buf: make([]trace.Request, 256)}
	for i, sch := range schemes {
		l := &lane{
			name:        sch.Name(),
			total:       sch.TotalCells(),
			data:        sch.DataCells(),
			opts:        opts,
			energyHist:  stats.NewHistogram(ref[i].EnergyHist.Width),
			updatedHist: stats.NewHistogram(ref[i].UpdatedHist.Width),
		}
		if opts.SampleDisturb {
			l.sampler = prng.New(opts.Seed ^ uint64(i+1))
		}
		if opts.TrackWear {
			l.wear = wear.NewDense(l.total)
		}
		if ps, ok := core.PlaneCodec(sch); ok {
			l.plane = ps
			l.gateP = core.CompressedWritePlanesFunc(sch)
			stride := coset.PlaneWords(l.total)
			l.lines = arena.New(stride, 0)
			l.dstP = make([]uint64, stride)
			l.masks = make([]uint64, stride/2)
		} else {
			l.encode = core.EncodeCtrFunc(sch)
			l.decode = core.DecodeCtrFunc(sch)
			l.gateC = core.CompressedWriteFunc(sch)
			l.mem = make(map[uint64][]pcm.State)
			if core.UsesCounters(sch) {
				l.ctrs = make(map[uint64]uint64)
			}
			l.spare = make([]pcm.State, l.total)
			l.changed = make([]bool, l.total)
		}
		w.lanes = append(w.lanes, l)
	}
	return w
}

// pass walks the whole source once. Like the engine, which replays a
// routed batch scheme by scheme, it decodes a batch and then runs it
// through one scheme at a time, each scheme's writes in trace order.
// Spans: a "batch" root per decoded batch, with a "trace.decode" child
// and one "scheme" child per lane, which parents the layer calls of the
// sampled requests. With a nil tracer nothing is timed.
func (w *walker) pass(src *trace.MappedSource, t *tracer) {
	var first int64 // request id of the batch's first request
	for {
		var batch int64
		if t != nil {
			t0 := t.now()
			batch = t.keep("batch", "", 0, -1, t0, t0)
		}
		s := start(t)
		n := src.NextBatch(w.buf)
		if t != nil {
			t1 := t.now()
			t.decNS += t1 - s
			t.decReq += int64(n)
			t.keep("trace.decode", "", batch, -1, s, t1)
		}
		if n == 0 {
			if t != nil {
				t.end(batch)
			}
			return
		}
		for li, l := range w.lanes {
			if t != nil {
				s := t.now()
				t.parent = t.keep("scheme", l.name, batch, -1, s, s)
			}
			for i := 0; i < n; i++ {
				if t != nil {
					t.request(first + int64(i))
				}
				if l.plane != nil {
					l.writePlanes(&w.buf[i], t, li)
				} else {
					l.writeCells(&w.buf[i], t, li)
				}
			}
			if t != nil {
				t.end(t.parent)
			}
		}
		if t != nil {
			t.end(batch)
		}
		first += int64(n)
	}
}

// start returns the clock for a layer call, or 0 untraced.
func start(t *tracer) int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// writePlanes is the engine's plane-native write of one request:
// ensure the line's arena slot, encode against its planes, price the
// differential write, observe, record wear, count disturbance, classify
// compression, verify by decoding, commit.
func (l *lane) writePlanes(r *trace.Request, t *tracer, li int) {
	s := start(t)
	slot, _ := l.lines.Ensure(r.Addr)
	if t != nil {
		t.done(li, layerEnsure, l.name, s)
	}
	old := l.lines.Planes(slot)

	s = start(t)
	l.plane.EncodePlanesInto(l.dstP, old, &r.New)
	if t != nil {
		t.done(li, layerEncode, l.name, s)
	}

	s = start(t)
	st := l.opts.Energy.DiffWriteMasks(old, l.dstP, l.masks, l.data)
	if t != nil {
		t.done(li, layerDiff, l.name, s)
	}
	l.account(st, t, li)

	if l.wear != nil {
		s = start(t)
		l.wear.RecordSlotMasks(slot, l.masks)
		if t != nil {
			t.done(li, layerWear, l.name, s)
		}
	}

	s = start(t)
	d := l.opts.Disturb.CountDisturbMasks(l.dstP, l.masks, l.total, l.data, l.sampler)
	if t != nil {
		t.done(li, layerDisturb, l.name, s)
	}
	l.disturb.Add(d)
	if l.gateP(l.dstP) {
		l.compressed++
	}

	s = start(t)
	l.plane.DecodePlanesInto(l.dstP, &l.got)
	if t != nil {
		t.done(li, layerVerify, l.name, s)
	}
	if !l.got.Equal(&r.New) {
		l.decodeErrors++
	}

	s = start(t)
	copy(old, l.dstP)
	if t != nil {
		t.done(li, layerCommit, l.name, s)
	}
}

// writeCells is the scalar write of counter schemes: the map line store
// and counter map the engine keeps for them, the keyed encode and
// decode, and the cell-vector diff and disturbance models.
func (l *lane) writeCells(r *trace.Request, t *tracer, li int) {
	old, ok := l.mem[r.Addr]
	if !ok {
		old = core.InitialCells(l.total)
	}
	var ctr uint64
	if l.ctrs != nil {
		ctr = l.ctrs[r.Addr] + 1
		l.ctrs[r.Addr] = ctr
	}
	dst := l.spare

	s := start(t)
	l.encode(dst, old, r.Addr, ctr, &r.New)
	if t != nil {
		t.done(li, layerEncode, l.name, s)
	}

	s = start(t)
	st, changed := l.opts.Energy.DiffWriteMask(old, dst, l.data, l.changed)
	if t != nil {
		t.done(li, layerDiff, l.name, s)
	}
	l.changed = changed
	l.account(st, t, li)

	if l.wear != nil {
		s = start(t)
		l.wear.RecordChanged(r.Addr, l.changed)
		if t != nil {
			t.done(li, layerWear, l.name, s)
		}
	}

	s = start(t)
	d := l.opts.Disturb.CountDisturb(dst, l.changed, l.data, l.sampler)
	if t != nil {
		t.done(li, layerDisturb, l.name, s)
	}
	l.disturb.Add(d)
	if l.gateC(dst) {
		l.compressed++
	}

	s = start(t)
	l.decode(dst, r.Addr, ctr, &l.got)
	if t != nil {
		t.done(li, layerVerify, l.name, s)
	}
	if !l.got.Equal(&r.New) {
		l.decodeErrors++
	}

	l.mem[r.Addr] = dst
	l.spare = old
}

// account adds one write's differential-write cost and observes both
// per-write histograms.
func (l *lane) account(st pcm.WriteStats, t *tracer, li int) {
	l.writes++
	l.energy.Add(st)
	s := start(t)
	l.energyHist.Observe(st.Energy())
	l.updatedHist.Observe(float64(st.Updated()))
	if t != nil {
		t.done(li, layerObserve, l.name, s)
	}
}

// compare checks the walk's totals against the engine's metrics for the
// same trace: integer totals exactly, energy and the histogram sums
// within float-summation tolerance (the engine sums per shard, then
// merges). Disturbance is compared only when it is not sampled — the
// walk draws from its own stream.
func (w *walker) compare(ms []sim.Metrics, sampled bool) error {
	if len(ms) != len(w.lanes) {
		return checkFailed("layer walk has %d schemes, engine %d", len(w.lanes), len(ms))
	}
	for i, l := range w.lanes {
		m := ms[i]
		bad := func(what string, got, want any) error {
			return checkFailed("layer walk %s: %s %v, engine %v", l.name, what, got, want)
		}
		switch {
		case l.writes != m.Writes:
			return bad("writes", l.writes, m.Writes)
		case l.energy.UpdatedData != m.Energy.UpdatedData:
			return bad("updated data cells", l.energy.UpdatedData, m.Energy.UpdatedData)
		case l.energy.UpdatedAux != m.Energy.UpdatedAux:
			return bad("updated aux cells", l.energy.UpdatedAux, m.Energy.UpdatedAux)
		case l.compressed != m.CompressedWrites:
			return bad("compressed writes", l.compressed, m.CompressedWrites)
		case l.decodeErrors != m.DecodeErrors:
			return bad("decode errors", l.decodeErrors, m.DecodeErrors)
		case !near(l.energy.EnergyData, m.Energy.EnergyData):
			return bad("data energy", l.energy.EnergyData, m.Energy.EnergyData)
		case !near(l.energy.EnergyAux, m.Energy.EnergyAux):
			return bad("aux energy", l.energy.EnergyAux, m.Energy.EnergyAux)
		case l.energyHist.Counts != m.EnergyHist.Counts || l.energyHist.Over != m.EnergyHist.Over:
			return bad("energy histogram", l.energyHist.Counts, m.EnergyHist.Counts)
		case l.updatedHist.Counts != m.UpdatedHist.Counts || l.updatedHist.Over != m.UpdatedHist.Over:
			return bad("updated-cell histogram", l.updatedHist.Counts, m.UpdatedHist.Counts)
		case !sampled && !near(l.disturb.Errors(), m.Disturb.Errors()):
			return bad("disturbance errors", l.disturb.Errors(), m.Disturb.Errors())
		}
	}
	return nil
}

// near reports agreement within float-summation tolerance.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// arenaLines returns the lines resident in the walk's arena (the
// first plane lane; every lane sees the same addresses).
func (w *walker) arenaLines() int {
	for _, l := range w.lanes {
		if l.lines != nil {
			return l.lines.Len()
		}
	}
	return 0
}

// walkPass opens the trace, builds fresh walk state and walks it once.
func walkPass(path string, names []string, opts *sim.Options, ref []sim.Metrics, t *tracer) (*walker, time.Duration, time.Duration, error) {
	t0 := time.Now()
	src, err := trace.OpenMapped(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer src.Close()
	open := time.Since(t0)
	schemes, err := buildSchemes(names)
	if err != nil {
		return nil, 0, 0, err
	}
	w := newWalker(schemes, opts, ref)
	t1 := time.Now()
	w.pass(src, t)
	d := time.Since(t1)
	if err := src.Err(); err != nil {
		return nil, 0, 0, fmt.Errorf("trace: %w", err)
	}
	return w, open, d, nil
}
