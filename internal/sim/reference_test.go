package sim

import (
	"fmt"

	"wlcrc/internal/core"
	"wlcrc/internal/memline"
	"wlcrc/internal/memsys"
	"wlcrc/internal/pcm"
	"wlcrc/internal/trace"
)

// refReplayer is the scalar reference the plane-native engine is held
// to: it replays a trace one request at a time in trace order, stores
// every line as a []pcm.State cell vector in a map, encodes through the
// scheme's scalar counter-aware codec and prices every write with the
// scalar DiffWriteMask/CountDisturb models. Its shards are the ones
// NewEngine lays out — same PRNG substreams, fault maps and merge
// order — with only the line store and the write path swapped, so its
// metrics, retired lines and errors must DeepEqual the engine's.
type refReplayer struct {
	e      *Engine
	shards []*refShard
}

// refShard is one shard's scalar line store: cell vectors and write
// counters keyed by address, charged into the wrapped shard's metrics,
// wear recorder and fault map.
type refShard struct {
	*shard
	mem        map[uint64][]pcm.State
	ctrs       map[uint64]uint64
	decodeCtr  func(cells []pcm.State, addr, ctr uint64, dst *memline.Line)
	compressed func([]pcm.State) bool
}

func newRefReplayer(opts Options, schemes ...core.Scheme) *refReplayer {
	e := NewEngine(opts, schemes...)
	r := &refReplayer{e: e, shards: make([]*refShard, len(e.shards))}
	for i, u := range e.shards {
		rs := &refShard{
			shard:      u,
			mem:        map[uint64][]pcm.State{},
			decodeCtr:  core.DecodeCtrFunc(u.scheme),
			compressed: core.CompressedWriteFunc(u.scheme),
		}
		if core.UsesCounters(u.scheme) {
			rs.ctrs = map[uint64]uint64{}
		}
		r.shards[i] = rs
	}
	return r
}

// Run replays up to max requests (all when max <= 0), stopping at the
// first error in trace order — the error the engine reports as well.
func (r *refReplayer) Run(src trace.Source, max int) error {
	for seq := uint64(0); max <= 0 || seq < uint64(max); seq++ {
		req, ok := src.Next()
		if !ok {
			break
		}
		unit := r.e.routeOf(req.Addr)
		for i := range r.e.schemes {
			if err := r.shards[i*r.e.units+unit].apply(&req, seq); err != nil {
				return err
			}
		}
	}
	return degradedError(r.Metrics(), r.e.opts.Faults)
}

// Metrics merges the reference shards exactly like Engine.Metrics.
func (r *refReplayer) Metrics() []Metrics { return r.e.Metrics() }

// RetiredLines is Engine.RetiredLines over the reference shards.
func (r *refReplayer) RetiredLines() [][]uint64 { return r.e.RetiredLines() }

// apply replays one request on cell vectors: fault detection and repair,
// energy and endurance, wear, disturbance, compression classification,
// fault injection, Verify, stuck overlay, then the store.
func (r *refShard) apply(req *trace.Request, seq uint64) error {
	u := r.shard
	sch := u.scheme
	addr, data := req.Addr, &req.New
	old, ok := r.mem[addr]
	if !ok {
		old = core.InitialCells(sch.TotalCells())
	}
	var ctr uint64
	if r.ctrs != nil {
		ctr = r.ctrs[addr] + 1
		r.ctrs[addr] = ctr
	}
	newCells := make([]pcm.State, sch.TotalCells())
	u.encodeCtr(newCells, old, addr, ctr, data)

	m := &u.m
	m.Writes++
	var faultErr error
	if u.fm != nil {
		faultErr = u.repairFaults(newCells, old, u.wear.LineCounts(addr), addr, ctr, seq, data)
	}
	st, changed := u.opts.Energy.DiffWriteMask(old, newCells, sch.DataCells(), u.changed)
	u.changed = changed
	m.Energy.Add(st)
	m.EnergyHist.Observe(st.Energy())
	m.UpdatedHist.Observe(float64(st.Updated()))
	if u.wear != nil {
		u.wear.RecordChanged(addr, u.changed)
	}
	var sampler pcm.Sampler
	if u.rnd != nil {
		sampler = u.rnd
	}
	d := u.opts.Disturb.CountDisturb(newCells, u.changed, sch.DataCells(), sampler)
	m.Disturb.Add(d)
	if e := d.Errors(); e > m.MaxDisturb {
		m.MaxDisturb = e
	}
	if r.compressed(newCells) {
		m.CompressedWrites++
	}
	if u.opts.InjectFaults {
		u.runVnR(newCells, u.changed, u.opts.MaxVnRIterations, addr)
	}
	var verifyErr error
	if u.opts.Verify {
		var got memline.Line
		r.decodeCtr(newCells, addr, ctr, &got)
		if !got.Equal(data) {
			m.DecodeErrors++
			verifyErr = fmt.Errorf("sim: %s: decode mismatch at addr %#x", sch.Name(), addr)
		}
	}
	if u.fm != nil {
		u.fm.OnWrite(addr, u.changed, newCells, u.wear.LineCounts(addr))
		if ls := u.fm.Stuck(addr); ls != nil {
			u.fm.StoreParity(addr, newCells, &u.eccSc)
			ls.Overlay(newCells)
		}
	}
	r.mem[addr] = newCells
	if verifyErr != nil {
		return verifyErr
	}
	return faultErr
}

// serialGeometry is a single-bank array with one sub-shard: an Engine on
// it keeps one shard per scheme covering every address.
func serialGeometry() memsys.Config {
	return memsys.Config{Channels: 1, DIMMsPerChan: 1, BanksPerDIMM: 1, SubShards: 1,
		WriteQueueCap: 8, DrainThreshold: 0.8}
}

// newSerialEngine builds a one-worker Engine over serialGeometry: a
// plain sequential replay where shards[i] is scheme i's whole view.
func newSerialEngine(opts Options, schemes ...core.Scheme) *Engine {
	opts.Workers = 1
	opts.Geometry = serialGeometry()
	return NewEngine(opts, schemes...)
}

// readLine reads addr back through scheme i's owning shard.
func (e *Engine) readLine(i int, addr uint64, dst *memline.Line) (ok bool, err error) {
	return e.shards[i*e.units+e.routeOf(addr)].readLine(addr, dst)
}

// scalarOnlyScheme is a caller-defined scheme with only the scalar
// codec — the adapter path of core.NewLineCodec. It stores the raw C1
// mapping plus a flag cell (so the line ends mid-word) holding the low
// symbol of word 0, and reports writes with an S1 flag as compressed.
type scalarOnlyScheme struct{}

func (scalarOnlyScheme) Name() string    { return "scalar-only" }
func (scalarOnlyScheme) TotalCells() int { return memline.LineCells + 1 }
func (scalarOnlyScheme) DataCells() int  { return memline.LineCells }

func (s scalarOnlyScheme) Encode(old []pcm.State, data *memline.Line) []pcm.State {
	out := make([]pcm.State, s.TotalCells())
	s.EncodeInto(out, old, data)
	return out
}

func (scalarOnlyScheme) EncodeInto(dst, old []pcm.State, data *memline.Line) {
	core.Baseline{}.EncodeInto(dst[:memline.LineCells], old[:memline.LineCells], data)
	dst[memline.LineCells] = pcm.State(data.Word(0) & 3)
}

func (s scalarOnlyScheme) Decode(cells []pcm.State) memline.Line {
	var l memline.Line
	s.DecodeInto(cells, &l)
	return l
}

func (scalarOnlyScheme) DecodeInto(cells []pcm.State, dst *memline.Line) {
	core.Baseline{}.DecodeInto(cells[:memline.LineCells], dst)
}

func (scalarOnlyScheme) CompressedWrite(cells []pcm.State) bool {
	return cells[memline.LineCells] == pcm.S1
}
