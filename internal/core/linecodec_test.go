package core

import (
	"reflect"
	"testing"

	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// scalarOnly hides every optional extension of the wrapped scheme but
// its compression gate — a caller's scalar-only Scheme, which
// NewLineCodec serves through the pack/unpack adapter.
type scalarOnly struct{ Scheme }

func (s scalarOnly) Name() string { return "scalar-only(" + s.Scheme.Name() + ")" }

func (s scalarOnly) CompressedWrite(cells []pcm.State) bool {
	return CompressedWriteFunc(s.Scheme)(cells)
}

// batchSchemes is allSchemes plus the counter-keyed families, whose
// codecs must thread each job's (addr, ctr) through, and a scalar-only
// scheme on the adapter.
func batchSchemes(t *testing.T) []Scheme {
	t.Helper()
	out := allSchemes(t)
	for _, n := range []string{"VCC-2", "VCC-4", "VCC-8", "Enc(WLCRC-16)"} {
		s, err := NewScheme(n, DefaultConfig())
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", n, err)
		}
		out = append(out, s)
	}
	wlcrc, err := NewScheme("WLCRC-16", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return append(out, scalarOnly{wlcrc})
}

// TestEncodeBatchMatchesPerLine is the contract of the shard's run
// encode: a run of address-distinct jobs encoded back to back through
// one resolved line codec — before any of them settles — must produce,
// job for job, exactly the packed per-line counter-aware scalar encode,
// classified like it, and every encoded line must decode back to its
// data. Codec scratch
// (the adapter's cells, Enc's staging line) must not leak between jobs.
func TestEncodeBatchMatchesPerLine(t *testing.T) {
	rnd := prng.New(99)
	for _, s := range batchSchemes(t) {
		t.Run(s.Name(), func(t *testing.T) {
			n := s.TotalCells()
			enc, scalarGate := EncodeCtrFunc(s), CompressedWriteFunc(s)
			codec, gate := NewLineCodec(s)
			for round := 0; round < 8; round++ {
				const runLen = 7
				data := make([]memline.Line, runLen)
				olds := make([][]pcm.State, runLen)
				oldP := make([][]uint64, runLen)
				dst := make([][]uint64, runLen)
				for k := 0; k < runLen; k++ {
					data[k] = randomBiasedLine(rnd)
					olds[k] = InitialCells(n)
					if round > 0 { // rewrite path: start from a previous encode
						enc(olds[k], InitialCells(n), uint64(k), 1, &data[k])
						data[k] = randomBiasedLine(rnd)
					}
					oldP[k] = packedPlanes(olds[k])
					dst[k] = make([]uint64, len(oldP[k]))
				}
				addr := func(k int) uint64 { return uint64(round*runLen + k) }
				ctr := uint64(round + 1)
				for k := 0; k < runLen; k++ {
					codec.EncodeCtrPlanesInto(dst[k], oldP[k], addr(k), ctr, &data[k])
				}
				for k := 0; k < runLen; k++ {
					want := make([]pcm.State, n)
					enc(want, olds[k], addr(k), ctr, &data[k])
					if !reflect.DeepEqual(packedPlanes(want), dst[k]) {
						t.Fatalf("round %d job %d: run encode differs from per-line encode", round, k)
					}
					if scalarGate(want) != gate(dst[k]) {
						t.Fatalf("round %d job %d: plane gate disagrees with the scalar gate", round, k)
					}
					var back memline.Line
					codec.DecodeCtrPlanesInto(dst[k], addr(k), ctr, &back)
					if !back.Equal(&data[k]) {
						t.Fatalf("round %d job %d: run-encoded line fails decode round-trip", round, k)
					}
				}
			}
		})
	}
}

// TestEncodeBatchDoesNotMutateOldOrData pins the aliasing contract the
// shard relies on: the line codec reads the old planes and the data but
// never writes them (the shard commits into the old slot only after the
// whole run is encoded).
func TestEncodeBatchDoesNotMutateOldOrData(t *testing.T) {
	rnd := prng.New(3)
	for _, s := range batchSchemes(t) {
		n := s.TotalCells()
		codec, _ := NewLineCodec(s)
		for k := 0; k < 4; k++ {
			data := randomBiasedLine(rnd)
			dataCopy := data
			oldP := packedPlanes(randomOld(rnd, n))
			oldCopy := append([]uint64(nil), oldP...)
			codec.EncodeCtrPlanesInto(make([]uint64, len(oldP)), oldP, uint64(k), 1, &data)
			if !reflect.DeepEqual(oldP, oldCopy) {
				t.Fatalf("%s: encode mutated job %d's old planes", s.Name(), k)
			}
			if !data.Equal(&dataCopy) {
				t.Fatalf("%s: encode mutated job %d's data", s.Name(), k)
			}
		}
	}
}
