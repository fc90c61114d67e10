package core

import (
	"testing"

	"wlcrc/internal/bch"
	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// refDIN is the bit-at-a-time DIN transform the word-parallel codec
// replaced, kept as the oracle: the stream is expanded one 3-bit group
// at a time through a bit writer, the BCH message is one byte per bit,
// and the stored line is laid out with SetBit/Bit.
type refDIN struct {
	codec   *bch.Code
	enc3to4 [8]uint8
	dec4to3 [16]uint8
}

func newRefDIN() *refDIN {
	d := &refDIN{codec: bch.New()}
	allowed := []uint8{0, 2, 3}
	for i := range d.dec4to3 {
		d.dec4to3[i] = 255
	}
	for v := 0; v < 8; v++ {
		cw := allowed[v/3]<<2 | allowed[v%3]
		d.enc3to4[v] = cw
		d.dec4to3[cw] = uint8(v)
	}
	return d
}

// encode returns the stored line and whether the line took the
// compressed path; on the raw path it returns data itself.
func (d *refDIN) encode(data *memline.Line) (memline.Line, bool) {
	var cBack [(compress.FPCBDIMaxBits + 7) / 8]byte
	cw := compress.WrapBitWriter(cBack[:])
	if compress.FPCBDICompressTo(data, &cw) > dinMaxCompressed {
		return *data, false
	}
	r := compress.WrapBitReader(cw.Bytes())
	var eBack [memline.LineBytes]byte
	w := compress.WrapBitWriter(eBack[:])
	for i := 0; i < dinMaxCompressed/3; i++ {
		w.WriteBits(uint64(d.enc3to4[r.ReadBits(3)]), 4)
	}
	payload := w.Bytes()
	var msg [dinPayloadBits]uint8
	for i := range msg {
		msg[i] = payload[i/8] >> (uint(i) % 8) & 1
	}
	var parity [bch.ParityBits]uint8
	d.codec.EncodeTo(msg[:], parity[:])
	var stored memline.Line
	for i, b := range msg {
		stored.SetBit(i, int(b))
	}
	for i, b := range parity {
		stored.SetBit(dinPayloadBits+i, int(b))
	}
	return stored, true
}

// codeword lays a stored line out as a BCH codeword: parity, then
// message.
func refCodeword(stored *memline.Line) [bch.ParityBits + dinPayloadBits]uint8 {
	var cw [bch.ParityBits + dinPayloadBits]uint8
	for i := 0; i < dinPayloadBits; i++ {
		cw[bch.ParityBits+i] = uint8(stored.Bit(i))
	}
	for i := 0; i < bch.ParityBits; i++ {
		cw[i] = uint8(stored.Bit(dinPayloadBits + i))
	}
	return cw
}

// decode inverts encode for a compressed stored line, correcting
// through bch.Decode unconditionally.
func (d *refDIN) decode(stored *memline.Line) memline.Line {
	cw := refCodeword(stored)
	d.codec.Decode(cw[:])
	var sBack [(dinMaxCompressed + 7) / 8]byte
	w := compress.WrapBitWriter(sBack[:])
	for g := 0; g < dinPayloadBits/4; g++ {
		var v uint8
		for b := 0; b < 4; b++ {
			v |= cw[bch.ParityBits+g*4+b] << uint(b)
		}
		dec := d.dec4to3[v]
		if dec == 255 {
			dec = 0
		}
		w.WriteBits(uint64(dec), 3)
	}
	return compress.FPCBDIDecompress(w.Bytes())
}

// correctLine is the reference CorrectLine: the corrected count and the
// repaired stored line.
func (d *refDIN) correctLine(stored *memline.Line) (int, memline.Line) {
	cw := refCodeword(stored)
	n, ok := d.codec.Decode(cw[:])
	if !ok || n == 0 {
		return 0, *stored
	}
	var fixed memline.Line
	for i := 0; i < dinPayloadBits; i++ {
		fixed.SetBit(i, int(cw[bch.ParityBits+i]))
	}
	for i := 0; i < bch.ParityBits; i++ {
		fixed.SetBit(dinPayloadBits+i, int(cw[i]))
	}
	return n, fixed
}

// dinTestLines returns lines over the whole compressibility range:
// zero, small-valued, delta-structured and random.
func dinTestLines(r *prng.Xoshiro256, n int) []memline.Line {
	out := make([]memline.Line, n)
	for i := range out {
		l := &out[i]
		switch i % 5 {
		case 0:
			r.Fill(l[:])
		case 1:
			for w := 0; w < memline.LineWords; w++ {
				l.SetWord(w, r.Uint64()>>uint(44+r.Intn(20)))
			}
		case 2:
			base := r.Uint64()
			for w := 0; w < memline.LineWords; w++ {
				l.SetWord(w, base+uint64(r.Intn(200)))
			}
		case 3:
			for w := 0; w < memline.LineWords; w++ {
				if r.Intn(3) == 0 {
					l.SetWord(w, r.Uint64()>>uint(r.Intn(64)))
				}
			}
		case 4:
			for w := 0; w < memline.LineWords; w++ {
				l.SetWord(w, uint64(r.Uint32()&0xffff))
			}
		}
	}
	return out
}

// TestDINMatchesReference checks the word-parallel transform against
// the bit-at-a-time oracle: identical stored cells and flags from the
// scalar and plane encoders, and identical decodes.
func TestDINMatchesReference(t *testing.T) {
	d := NewDIN(DefaultConfig())
	ref := newRefDIN()
	compressed := 0
	for i, data := range dinTestLines(prng.New(91), 2000) {
		stored, ok := ref.encode(&data)
		want := make([]pcm.State, d.TotalCells())
		rawEncode(&stored, want)
		want[memline.LineCells] = flagUncompressed
		if ok {
			want[memline.LineCells] = flagCompressed
			compressed++
		}
		got := d.Encode(InitialCells(d.TotalCells()), &data)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("line %d (compressed %v): cell %d = %v, want %v", i, ok, c, got[c], want[c])
			}
		}
		planes := make([]uint64, coset.PlaneWords(d.TotalCells()))
		d.EncodePlanesInto(planes, planes, &data)
		back := make([]pcm.State, d.TotalCells())
		coset.UnpackLine(planes, back)
		for c := range want {
			if back[c] != want[c] {
				t.Fatalf("line %d: plane cell %d = %v, want %v", i, c, back[c], want[c])
			}
		}
		if dec := d.Decode(got); dec != data {
			t.Fatalf("line %d: decode mismatch", i)
		}
		if ok {
			if dec := ref.decode(&stored); dec != data {
				t.Fatalf("line %d: reference decode mismatch", i)
			}
		}
	}
	if compressed < 400 || compressed > 1800 {
		t.Fatalf("%d of 2000 lines compressed; the mix must cover both paths", compressed)
	}
}

// TestDINFlippedBitsMatchReference covers the verify fast path and the
// repair path. A clean stored line passes the parity compare (so decode
// skips bch.Decode); lines with 1, 2 and 3 flipped payload or parity
// bits fail it, and DecodeInto, DecodePlanesInto and CorrectLine give
// exactly what the reference decoder gives, including the 3-flip
// miscorrections.
func TestDINFlippedBitsMatchReference(t *testing.T) {
	d := NewDIN(DefaultConfig())
	ref := newRefDIN()
	r := prng.New(92)
	checked := 0
	for _, data := range dinTestLines(r, 600) {
		stored, ok := ref.encode(&data)
		if !ok {
			continue
		}
		checked++
		if !d.parityOK(&stored) {
			t.Fatal("clean stored line fails the parity compare")
		}
		for nflip := 1; nflip <= 3; nflip++ {
			bad := stored
			seen := map[int]bool{}
			for len(seen) < nflip {
				// Half the flips land in the parity field.
				bit := r.Intn(dinPayloadBits)
				if r.Intn(2) == 0 {
					bit = dinPayloadBits + r.Intn(bch.ParityBits)
				}
				if !seen[bit] {
					seen[bit] = true
					bad.SetBit(bit, bad.Bit(bit)^1)
				}
			}
			if d.parityOK(&bad) {
				t.Fatalf("%d flips %v pass the parity compare", nflip, seen)
			}
			cells := make([]pcm.State, d.TotalCells())
			rawEncode(&bad, cells)
			cells[memline.LineCells] = flagCompressed
			want := ref.decode(&bad)
			if got := d.Decode(cells); got != want {
				t.Fatalf("%d flips %v: DecodeInto differs from the reference", nflip, seen)
			}
			planes := make([]uint64, coset.PlaneWords(d.TotalCells()))
			coset.PackLine(cells, planes)
			var got memline.Line
			d.DecodePlanesInto(planes, &got)
			if got != want {
				t.Fatalf("%d flips %v: DecodePlanesInto differs from the reference", nflip, seen)
			}
			wantN, fixed := ref.correctLine(&bad)
			wantCells := make([]pcm.State, d.TotalCells())
			rawEncode(&fixed, wantCells)
			wantCells[memline.LineCells] = flagCompressed
			if n := d.CorrectLine(cells); n != wantN {
				t.Fatalf("%d flips %v: CorrectLine = %d, reference %d", nflip, seen, n, wantN)
			}
			for c := range cells {
				if cells[c] != wantCells[c] {
					t.Fatalf("%d flips %v: CorrectLine cell %d = %v, reference %v", nflip, seen, c, cells[c], wantCells[c])
				}
			}
			if nflip <= 2 && wantN != nflip {
				t.Fatalf("%d flips %v: reference corrected %d", nflip, seen, wantN)
			}
		}
		// A clean line: CorrectLine reports nothing and leaves the cells.
		cells := make([]pcm.State, d.TotalCells())
		rawEncode(&stored, cells)
		cells[memline.LineCells] = flagCompressed
		before := append([]pcm.State(nil), cells...)
		if n := d.CorrectLine(cells); n != 0 {
			t.Fatalf("clean line: CorrectLine = %d", n)
		}
		for c := range cells {
			if cells[c] != before[c] {
				t.Fatalf("clean line: CorrectLine changed cell %d", c)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d compressible lines", checked)
	}
}
