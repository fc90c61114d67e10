package vcc

import (
	"fmt"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Scheme is the VCC-n write encoder: counter-mode encryption fused with
// per-word virtual coset selection. Each 64-bit word of the line is
// encrypted with the (key, addr, ctr) pad, then the cheapest of n
// candidate XOR vectors (candidate 0 = raw ciphertext) is applied and
// the result stored through the fixed C1 mapping; the winning index
// lands in the word's auxiliary cells. Decode reads the indices,
// regenerates the identical candidates from (key, addr, ctr), and
// undoes the XORs — the round trip ends in plaintext.
//
// Unlike WLCRC there is no compression gate: the encoded path is taken
// on every write, incompressible or not, which is the whole point on
// encrypted traffic.
//
// Scheme implements core.CounterScheme. The counter-blind
// EncodeInto/DecodeInto forms use (addr=0, ctr=0) — a degenerate
// static-whitening mode kept for the generic Scheme contract; replay
// frontends always drive the counter-aware path.
//
// Scheme is immutable after construction and safe for concurrent use;
// all per-call scratch lives on the caller's stack.
type Scheme struct {
	name    string
	n       int // candidates per word: 2, 4 or 8
	idxBits int // bits per stored index: log2(n)
	cipher  Cipher
	em      pcm.EnergyModel
	// swar prices and applies the fixed C1 mapping word-parallel; tab is
	// the scalar CostTable the reference encoder and tests price with.
	swar coset.SWARTable
	tab  coset.CostTable
}

// New builds a VCC scheme with n candidate vectors per word (2, 4 or 8)
// under the given energy model. key 0 means DefaultKey.
func New(em pcm.EnergyModel, n int, key uint64) (*Scheme, error) {
	bits := 0
	switch n {
	case 2:
		bits = 1
	case 4:
		bits = 2
	case 8:
		bits = 3
	default:
		return nil, fmt.Errorf("vcc: candidate count %d not in {2,4,8}", n)
	}
	return &Scheme{
		name:    fmt.Sprintf("VCC-%d", n),
		n:       n,
		idxBits: bits,
		cipher:  Cipher{Key: key},
		em:      em,
		swar:    coset.C1.SWAR(&em),
		tab:     coset.C1.CostTable(&em),
	}, nil
}

// Name implements core.Scheme.
func (s *Scheme) Name() string { return s.name }

// Candidates returns the per-word candidate count n.
func (s *Scheme) Candidates() int { return s.n }

// auxCells is the number of cells holding candidate indices: 8 words x
// idxBits bits, two bits per cell.
func (s *Scheme) auxCells() int { return memline.LineWords * s.idxBits / 2 }

// TotalCells implements core.Scheme: 256 data cells plus the candidate
// index cells (4, 8 or 12 for n = 2, 4, 8). The per-line write counter
// is not charged here — counter-mode encryption already maintains it in
// the counter store, and VCC merely reuses it (the paper's "free"
// randomness source).
func (s *Scheme) TotalCells() int { return memline.LineCells + s.auxCells() }

// DataCells implements core.Scheme.
func (s *Scheme) DataCells() int { return memline.LineCells }

// Encode implements core.Scheme (allocating wrapper, addr=0, ctr=0).
func (s *Scheme) Encode(old []pcm.State, data *memline.Line) []pcm.State {
	out := make([]pcm.State, s.TotalCells())
	s.EncodeInto(out, old, data)
	return out
}

// EncodeInto implements core.Scheme with the degenerate (addr=0, ctr=0)
// stream.
func (s *Scheme) EncodeInto(dst, old []pcm.State, data *memline.Line) {
	s.EncodeCtrInto(dst, old, 0, 0, data)
}

// Decode implements core.Scheme (allocating wrapper, addr=0, ctr=0).
func (s *Scheme) Decode(cells []pcm.State) memline.Line {
	var l memline.Line
	s.DecodeInto(cells, &l)
	return l
}

// DecodeInto implements core.Scheme with the degenerate (addr=0, ctr=0)
// stream.
func (s *Scheme) DecodeInto(cells []pcm.State, dst *memline.Line) {
	s.DecodeCtrInto(cells, 0, 0, dst)
}

// EncodeCtrInto implements core.CounterScheme: encrypt data under
// (addr, ctr), pick each word's cheapest candidate vector word-parallel,
// store the winners through C1 and the indices in the aux cells. Every
// cell of dst is written.
func (s *Scheme) EncodeCtrInto(dst, old []pcm.State, addr, ctr uint64, data *memline.Line) {
	var pad [memline.LineWords]uint64
	var vecs [MaxCandidates][memline.LineWords]uint64
	s.cipher.Candidates(addr, ctr, s.n, &pad, &vecs)

	var idx [memline.LineWords]uint8
	var p coset.WordPlanes
	for w := 0; w < memline.LineWords; w++ {
		p.Init(data.Word(w)^pad[w], old[w*memline.WordCells:(w+1)*memline.WordCells])
		nlo, nhi := s.selectWord(&p, &vecs, w, &idx[w])
		coset.UnpackStates(nlo, nhi, dst[w*memline.WordCells:(w+1)*memline.WordCells])
	}
	s.packIndices(&idx, dst[memline.LineCells:s.TotalCells()])
}

// EncodeCtrPlanesInto is EncodeCtrInto on plane-resident lines
// (core.CounterPlaneScheme): the old states enter the pricing straight
// from old's plane words, the winners are stored as planes, and the
// candidate indices fill the tail word pair under the AuxPack mapping.
// dst equals coset.PackLine of EncodeCtrInto's cells bit for bit.
func (s *Scheme) EncodeCtrPlanesInto(dst, old []uint64, addr, ctr uint64, data *memline.Line) {
	var pad [memline.LineWords]uint64
	var vecs [MaxCandidates][memline.LineWords]uint64
	s.cipher.Candidates(addr, ctr, s.n, &pad, &vecs)

	var idx [memline.LineWords]uint8
	var p coset.WordPlanes
	var bits uint64
	for w := 0; w < memline.LineWords; w++ {
		p.SetData(data.Word(w) ^ pad[w])
		p.SetOldPlanes(old[2*w], old[2*w+1])
		dst[2*w], dst[2*w+1] = s.selectWord(&p, &vecs, w, &idx[w])
		bits |= uint64(idx[w]) << uint(w*s.idxBits)
	}
	// The index bit stream, two bits per aux cell with the AuxPack
	// identity mapping, is exactly a data word's symbol planes.
	dst[planeTail], dst[planeTail+1] = memline.LoHiPlanes(bits)
}

// selectWord prices the word's n candidates against its old states,
// stores the winning index in idx, and returns the winner's C1-mapped
// state planes. p carries the ciphertext word's data planes.
func (s *Scheme) selectWord(p *coset.WordPlanes, vecs *[MaxCandidates][memline.LineWords]uint64, w int, idx *uint8) (lo, hi uint64) {
	clo, chi := p.Lo, p.Hi
	// Candidate 0 is the zero vector: price the ciphertext directly.
	best := 0
	bestCost, _ := s.swar.CostCount(p, coset.AllCells)
	for c := 1; c < s.n; c++ {
		vlo, vhi := memline.LoHiPlanes(vecs[c][w])
		var cnt [4]int
		// LoHiPlanes is linear over XOR, so the candidate's planes
		// are two XORs — the word is never re-extracted.
		s.swar.CountsPlanes(clo^vlo, chi^vhi, p, coset.AllCells, &cnt)
		cost, _ := s.swar.CostOf(&cnt)
		if cost < bestCost {
			best, bestCost = c, cost
		}
	}
	*idx = uint8(best)
	vlo, vhi := memline.LoHiPlanes(vecs[best][w])
	return s.swar.ApplyPlanes(clo^vlo, chi^vhi)
}

// DecodeCtrInto implements core.CounterScheme: read the indices,
// regenerate the candidates of (addr, ctr), undo the winning XOR and the
// pad. dst is fully overwritten.
func (s *Scheme) DecodeCtrInto(cells []pcm.State, addr, ctr uint64, dst *memline.Line) {
	var pad [memline.LineWords]uint64
	var vecs [MaxCandidates][memline.LineWords]uint64
	s.cipher.Candidates(addr, ctr, s.n, &pad, &vecs)

	var idx [memline.LineWords]uint8
	s.unpackIndices(cells[memline.LineCells:s.TotalCells()], &idx)
	for w := 0; w < memline.LineWords; w++ {
		slo, shi := coset.PackStates(cells[w*memline.WordCells:])
		dlo, dhi := s.swar.ApplyInvPlanes(slo, shi)
		cw := memline.InterleavePlanes(dlo, dhi)
		dst.SetWord(w, cw^vecs[idx[w]][w]^pad[w])
	}
}

// DecodeCtrPlanesInto is DecodeCtrInto on plane-resident lines
// (core.CounterPlaneScheme). dst is fully overwritten.
func (s *Scheme) DecodeCtrPlanesInto(planes []uint64, addr, ctr uint64, dst *memline.Line) {
	var pad [memline.LineWords]uint64
	var vecs [MaxCandidates][memline.LineWords]uint64
	s.cipher.Candidates(addr, ctr, s.n, &pad, &vecs)

	bits := memline.InterleavePlanes(planes[planeTail], planes[planeTail+1])
	mask := uint64(s.n - 1)
	for w := 0; w < memline.LineWords; w++ {
		dlo, dhi := s.swar.ApplyInvPlanes(planes[2*w], planes[2*w+1])
		i := bits >> uint(w*s.idxBits) & mask
		dst.SetWord(w, memline.InterleavePlanes(dlo, dhi)^vecs[i][w]^pad[w])
	}
}

// planeTail is the plane-pair index of the word holding cells 256+, the
// candidate-index cells of a plane-resident line.
const planeTail = 2 * memline.LineWords

// packIndices stores the eight per-word candidate indices, idxBits bits
// each LSB-first, into the auxiliary cells through the fixed AuxPack
// mapping.
func (s *Scheme) packIndices(idx *[memline.LineWords]uint8, aux []pcm.State) {
	var bits [memline.LineWords * 3]uint8
	k := 0
	for w := 0; w < memline.LineWords; w++ {
		for b := 0; b < s.idxBits; b++ {
			bits[k] = idx[w] >> uint(b) & 1
			k++
		}
	}
	coset.PackBitsToStates(bits[:k], aux)
}

// unpackIndices inverts packIndices.
func (s *Scheme) unpackIndices(aux []pcm.State, idx *[memline.LineWords]uint8) {
	var bits [memline.LineWords * 3]uint8
	coset.UnpackBits(aux, bits[:memline.LineWords*s.idxBits])
	k := 0
	for w := 0; w < memline.LineWords; w++ {
		idx[w] = 0
		for b := 0; b < s.idxBits; b++ {
			idx[w] |= bits[k] & 1 << uint(b)
			k++
		}
	}
}

// encodeWordScalar is the per-cell reference of the SWAR word path: it
// prices every candidate with the scalar CostTable, applies the winner
// symbol by symbol, and returns the chosen index. Equivalence tests and
// fuzz targets assert SWAR == scalar bit for bit.
func (s *Scheme) encodeWordScalar(cipherWord uint64, vecs *[MaxCandidates][memline.LineWords]uint64, w int, old, out []pcm.State) uint8 {
	best, bestCost := 0, 0.0
	for c := 0; c < s.n; c++ {
		var syms [memline.WordCells]uint8
		memline.WordSymbols(cipherWord^vecs[c][w], &syms)
		cost := s.tab.BlockCost(syms[:], old[:memline.WordCells])
		if c == 0 || cost < bestCost {
			best, bestCost = c, cost
		}
	}
	var syms [memline.WordCells]uint8
	memline.WordSymbols(cipherWord^vecs[best][w], &syms)
	s.tab.Encode(syms[:], out[:memline.WordCells])
	return uint8(best)
}
