package workload

import (
	"fmt"

	"wlcrc/internal/memline"
	"wlcrc/internal/prng"
	"wlcrc/internal/trace"
)

// Generator synthesizes an infinite write stream for one profile. It
// tracks the current content of every line in the working set so each
// emitted request carries both the value being overwritten and the new
// value, exactly like the paper's Simics traces (§VII.A).
type Generator struct {
	prof  Profile
	rng   *prng.Xoshiro256
	lines []lineSlot
	// hotLines get hotFraction of the writes (temporal locality).
	hot int
}

type lineSlot struct {
	ctx  lineContext
	data memline.Line
	init bool
}

const (
	hotSetFraction = 0.2 // fraction of lines that are "hot"
	hotWriteProb   = 0.8 // fraction of writes that go to the hot set
)

// NewGenerator builds a generator for prof with a deterministic seed.
// footprint overrides the profile's working-set size when positive.
func NewGenerator(prof Profile, footprint int, seed uint64) *Generator {
	if footprint <= 0 {
		footprint = prof.FootprintLines
	}
	if footprint <= 0 {
		footprint = 1024
	}
	g := &Generator{
		prof:  prof,
		rng:   prng.New(seed ^ hashName(prof.Name)),
		lines: make([]lineSlot, footprint),
		hot:   int(float64(footprint) * hotSetFraction),
	}
	if g.hot < 1 {
		g.hot = 1
	}
	return g
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// pickArchetype draws a line archetype from the profile mixture.
func (g *Generator) pickArchetype() Archetype {
	return Archetype(g.rng.Pick(g.prof.Mix[:]))
}

// Next implements trace.Source; it never ends.
func (g *Generator) Next() (trace.Request, bool) {
	var req trace.Request
	g.genInto(&req)
	return req, true
}

// NextBatch implements trace.BatchSource: the stream never ends, so dst
// is always filled completely. Each request is generated directly into
// its slot, so bulk consumers (trace.Record, Workload.NextBatch)
// skip the per-request interface call and 136-byte struct copy of Next.
// The draw sequence is identical to len(dst) Next calls.
func (g *Generator) NextBatch(dst []trace.Request) int {
	for i := range dst {
		g.genInto(&dst[i])
	}
	return len(dst)
}

// genInto generates the next request of the stream in place. It assigns
// every field of req — callers hand in recycled buffers with stale
// content.
func (g *Generator) genInto(req *trace.Request) {
	var addr int
	if g.rng.Bool(hotWriteProb) {
		addr = g.rng.Intn(g.hot)
	} else {
		addr = g.rng.Intn(len(g.lines))
	}
	slot := &g.lines[addr]
	if !slot.init {
		slot.ctx = newContext(g.pickArchetype(), g.rng)
		slot.data = slot.ctx.genLine(g.rng)
		slot.init = true
		// The first write to a line stores its initial content over an
		// all-zero line.
		req.Addr = uint64(addr)
		req.Old = memline.Line{}
		req.New = slot.data
		return
	}
	old := slot.data
	next := old
	fresh := g.rng.Bool(g.prof.Rewrite.FreshProb)
	if fresh && g.rng.Bool(g.prof.Rewrite.RerollProb) {
		// The line is repurposed to a different population (allocator
		// reuse): a genuinely full rewrite.
		slot.ctx = newContext(g.pickArchetype(), g.rng)
		next = slot.ctx.genLine(g.rng)
	} else if fresh && !incompressibleArch(slot.ctx.arch) {
		// Full-line value update within the population.
		next = slot.ctx.genLine(g.rng)
	} else {
		// Partial update of a few words. Noise-like populations (text
		// buffers, random blobs, double arrays) are always updated
		// in place — nobody rewrites a whole entropy-dense line on
		// every store, and modeling them as full rewrites would let a
		// handful of incompressible lines dominate every scheme's
		// energy equally, masking the encoders under study.
		n := g.wordsThisWrite()
		if fresh {
			n = memline.LineWords / 2
		}
		for i := 0; i < n; i++ {
			w := g.rng.Intn(memline.LineWords)
			slot.ctx.mutateWord(w, &next, g.rng)
		}
	}
	slot.data = next
	req.Addr = uint64(addr)
	req.Old = old
	req.New = next
}

// incompressibleArch marks the entropy-dense populations that are
// updated in place rather than wholesale.
func incompressibleArch(a Archetype) bool {
	return a == Text || a == Random || a == Double
}

// wordsThisWrite draws the number of words a partial update touches,
// with mean Rewrite.WordsPerWrite.
func (g *Generator) wordsThisWrite() int {
	mean := g.prof.Rewrite.WordsPerWrite
	if mean <= 1 {
		mean = 1
	}
	n := int(mean)
	if g.rng.Float64() < mean-float64(n) {
		n++
	}
	if n < 1 {
		n = 1
	}
	if n > memline.LineWords {
		n = memline.LineWords
	}
	return n
}

// Limited wraps a source with a request budget, turning the infinite
// generator into a finite trace.
type Limited struct {
	Src trace.Source
	N   int
}

// Next implements trace.Source.
func (l *Limited) Next() (trace.Request, bool) {
	if l.N <= 0 {
		return trace.Request{}, false
	}
	l.N--
	return l.Src.Next()
}

// NextBatch implements trace.BatchSource: the batch is clipped to the
// remaining budget and filled through the wrapped source's own batch
// path when it has one, so the limit costs one slice bound instead of a
// per-request check.
func (l *Limited) NextBatch(dst []trace.Request) int {
	if l.N <= 0 {
		return 0
	}
	if len(dst) > l.N {
		dst = dst[:l.N]
	}
	var n int
	if bs, ok := l.Src.(trace.BatchSource); ok {
		n = bs.NextBatch(dst)
	} else {
		for n < len(dst) {
			req, ok := l.Src.Next()
			if !ok {
				break
			}
			dst[n] = req
			n++
		}
	}
	l.N -= n
	return n
}

// Describe summarizes a profile for reports.
func Describe(p Profile) string {
	group := "LMI"
	if p.HMI {
		group = "HMI"
	}
	return fmt.Sprintf("%s (%s, fresh=%.2f, words=%.1f)", p.Name, group,
		p.Rewrite.FreshProb, p.Rewrite.WordsPerWrite)
}
