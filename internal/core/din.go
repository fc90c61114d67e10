package core

import (
	"encoding/binary"

	"wlcrc/internal/bch"
	"wlcrc/internal/compress"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// DIN (Jiang, Zhang & Yang [16]) removes the high-energy (and most
// disturbance-prone) cell state by remapping every 3 data bits onto a
// 4-bit codeword whose two symbols avoid S4, and protects the line with a
// 20-bit BCH code correcting two write-disturbance errors. The 33%
// expansion only fits when FPC+BDI compresses the line to at most 369
// bits (369 * 4/3 + 20 = 512); otherwise the line is written raw. One
// flag cell records which path was taken.
//
// Fixed layout of an encoded line (bit positions within the 512-bit
// region, all stored through the default mapping):
//
//	[0,   492)  3-to-4 expansion of the FPC+BDI stream zero-padded to 369 bits
//	[492, 512)  BCH parity
//
// The scalar and plane codecs share one line transform, done on whole
// words: expandLine builds the stored line and decodeStored inverts it.
type DIN struct {
	codec *bch.Code
}

// dinMaxCompressed is the FPC+BDI size gate in bits.
const dinMaxCompressed = 369

// dinPayloadBits is the fixed size of the expanded region.
const dinPayloadBits = dinMaxCompressed * 4 / 3 // 492

// dinParityShift is the offset of the BCH parity within the line's top
// word.
const dinParityShift = dinPayloadBits - (memline.LineWords-1)*64 // 44

// dinStreamBytes is the compressed stream zero-padded to 384 bits: eight
// 48-bit chunks, each expanding to one 64-bit word of the stored line.
// Streams are held in dinStreamBytes+2 bytes so the last chunk can be
// moved with one 64-bit load or store.
const dinStreamBytes = memline.LineWords * 6

// dinTab holds DIN's fixed 3-to-4 code. Allowed symbols avoid the state
// S4 = C1 mapping of "01": with the default mapping, S4 stores symbol
// 01 (value 1), so codeword symbols are drawn from {00, 10, 11} =
// {0, 2, 3}. That yields 9 two-symbol codewords for 8 values.
var dinTab = newDINTables()

type dinTables struct {
	// enc[v] is the 4-bit codeword (two symbols, low symbol in bits 0-1)
	// for the 3-bit value v; dec inverts it (255 = invalid).
	enc [8]uint8
	dec [16]uint8
	// expand maps two 3-bit values (6 stream bits) to their two
	// codewords (one stored byte); contract maps a stored byte back,
	// decoding an invalid codeword as 0.
	expand   [64]uint8
	contract [256]uint8
}

func newDINTables() *dinTables {
	t := &dinTables{}
	allowed := []uint8{0, 2, 3}
	for i := range t.dec {
		t.dec[i] = 255
	}
	for v := 0; v < 8; v++ {
		cw := allowed[v/3]<<2 | allowed[v%3]
		t.enc[v] = cw
		t.dec[cw] = uint8(v)
	}
	// Value 0 must expand to codeword 0: the zero padding above the
	// 369-bit stream then leaves bits [492, 512) clear for the parity.
	if t.enc[0] != 0 {
		panic("core: DIN codeword of 0 is not 0")
	}
	for x := range t.expand {
		t.expand[x] = t.enc[x&7] | t.enc[x>>3]<<4
	}
	dec := func(nib int) uint8 {
		if v := t.dec[nib]; v != 255 {
			return v
		}
		return 0 // uncorrectable garbage; decode deterministically
	}
	for b := range t.contract {
		t.contract[b] = dec(b&15) | dec(b>>4)<<3
	}
	return t
}

// NewDIN returns the DIN scheme.
func NewDIN(Config) *DIN { return &DIN{codec: bch.New()} }

// Name implements Scheme.
func (*DIN) Name() string { return "DIN" }

// TotalCells implements Scheme: 256 data cells plus the flag cell.
func (*DIN) TotalCells() int { return memline.LineCells + 1 }

// DataCells implements Scheme.
func (*DIN) DataCells() int { return memline.LineCells }

// Compressible reports whether the line passes DIN's FPC+BDI gate; the
// paper finds only ~30% of lines do.
func (d *DIN) Compressible(data *memline.Line) bool {
	return compress.FPCBDISize(data) <= dinMaxCompressed
}

// CompressedWrite implements CompressionGate.
func (d *DIN) CompressedWrite(cells []pcm.State) bool {
	return cells[memline.LineCells] == flagCompressed
}

// CompressedWritePlanes implements PlaneCompressionGate.
func (d *DIN) CompressedWritePlanes(planes []uint64) bool {
	return tailFlag(planes) == flagCompressed
}

// expandLine builds the stored layout of data into stored and reports
// whether data passed the size gate; on false stored is untouched and
// the line goes out raw. The gate is a size-only pass, so the majority
// of lines that fail it never pack a stream.
func (d *DIN) expandLine(data, stored *memline.Line) bool {
	if !d.Compressible(data) {
		return false
	}
	var back [(compress.FPCBDIMaxBits + 7) / 8]byte
	w := compress.WrapBitWriter(back[:])
	compress.FPCBDICompressTo(data, &w)
	var stream [dinStreamBytes + 2]byte
	copy(stream[:], w.Bytes())
	for k := 0; k < memline.LineWords; k++ {
		x := binary.LittleEndian.Uint64(stream[6*k:])
		var out uint64
		for i := uint(0); i < 8; i++ {
			out |= uint64(dinTab.expand[x>>(6*i)&63]) << (8 * i)
		}
		stored.SetWord(k, out)
	}
	p := d.codec.Parity(stored[:], dinPayloadBits)
	stored.SetWord(memline.LineWords-1, stored.Word(memline.LineWords-1)|uint64(p)<<dinParityShift)
	return true
}

// parityOK reports whether the payload's recomputed BCH parity equals
// the stored parity. Equal parity means a zero remainder modulo
// g = m1*m3, hence zero syndromes: bch.Decode would change nothing.
func (d *DIN) parityOK(stored *memline.Line) bool {
	return d.codec.Parity(stored[:], dinPayloadBits) == uint32(stored.Word(memline.LineWords-1)>>dinParityShift)
}

// correct checks a stored line against its BCH parity and repairs up to
// two flipped bits in place. A clean line returns at once; only a
// parity mismatch builds the bit-per-byte codeword for bch.Decode.
func (d *DIN) correct(stored *memline.Line) (corrected int, ok bool) {
	if d.parityOK(stored) {
		return 0, true
	}
	// Codeword order: parity first, then message.
	var cw [bch.ParityBits + dinPayloadBits]uint8
	for i := 0; i < dinPayloadBits; i++ {
		cw[bch.ParityBits+i] = uint8(stored.Bit(i))
	}
	for i := 0; i < bch.ParityBits; i++ {
		cw[i] = uint8(stored.Bit(dinPayloadBits + i))
	}
	corrected, ok = d.codec.Decode(cw[:])
	if corrected > 0 {
		for i := 0; i < dinPayloadBits; i++ {
			stored.SetBit(i, int(cw[bch.ParityBits+i]))
		}
		for i := 0; i < bch.ParityBits; i++ {
			stored.SetBit(dinPayloadBits+i, int(cw[i]))
		}
	}
	return corrected, ok
}

// decodeStored inverts expandLine: BCH correction, 4-to-3 contraction,
// FPC+BDI decompression. In normal simulator operation there are no
// errors to correct — disturbance errors are modeled statistically, not
// injected — but CorrectLine exposes the repair path and tests
// exercise it.
func (d *DIN) decodeStored(stored *memline.Line) memline.Line {
	d.correct(stored)
	var stream [dinStreamBytes + 2]byte
	for k := 0; k < memline.LineWords; k++ {
		w := stored.Word(k)
		if k == memline.LineWords-1 {
			w &= 1<<dinParityShift - 1 // drop the parity
		}
		var x uint64
		for i := uint(0); i < 8; i++ {
			x |= uint64(dinTab.contract[byte(w>>(8*i))]) << (6 * i)
		}
		// Writes 8 bytes; the 2 above this chunk are overwritten by the
		// next one (or land in the slack).
		binary.LittleEndian.PutUint64(stream[6*k:], x)
	}
	return compress.FPCBDIDecompress(stream[:dinStreamBytes])
}

// Encode implements Scheme.
func (d *DIN) Encode(old []pcm.State, data *memline.Line) []pcm.State {
	out := make([]pcm.State, d.TotalCells())
	d.EncodeInto(out, old, data)
	return out
}

// EncodeInto implements Scheme.
func (d *DIN) EncodeInto(dst, old []pcm.State, data *memline.Line) {
	var stored memline.Line
	if d.expandLine(data, &stored) {
		rawEncode(&stored, dst)
		dst[memline.LineCells] = flagCompressed
		return
	}
	rawEncode(data, dst)
	dst[memline.LineCells] = flagUncompressed
}

// EncodePlanesInto implements PlaneScheme.
func (d *DIN) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	var stored memline.Line
	if d.expandLine(data, &stored) {
		rawEncodePlanes(&stored, dst)
		setTailFlag(dst, flagCompressed)
		return
	}
	rawEncodePlanes(data, dst)
	setTailFlag(dst, flagUncompressed)
}

// Decode implements Scheme.
func (d *DIN) Decode(cells []pcm.State) memline.Line {
	var l memline.Line
	d.DecodeInto(cells, &l)
	return l
}

// DecodeInto implements Scheme.
func (d *DIN) DecodeInto(cells []pcm.State, dst *memline.Line) {
	if cells[memline.LineCells] != flagCompressed {
		rawDecodeInto(cells, dst)
		return
	}
	var stored memline.Line
	rawDecodeInto(cells, &stored)
	*dst = d.decodeStored(&stored)
}

// DecodePlanesInto implements PlaneScheme.
func (d *DIN) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	if tailFlag(planes) != flagCompressed {
		rawDecodePlanes(planes, dst)
		return
	}
	var stored memline.Line
	rawDecodePlanes(planes, &stored)
	*dst = d.decodeStored(&stored)
}

// CorrectLine runs the BCH verification step of DIN on a stored cell
// vector with up to two flipped payload bits, returning the number of
// corrected bits. It is the VnR hook the paper describes.
func (d *DIN) CorrectLine(cells []pcm.State) int {
	if cells[memline.LineCells] != flagCompressed {
		return 0
	}
	var stored memline.Line
	rawDecodeInto(cells, &stored)
	n, ok := d.correct(&stored)
	if !ok {
		return 0
	}
	if n > 0 {
		rawEncode(&stored, cells)
	}
	return n
}
