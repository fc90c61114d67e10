package compress

import "wlcrc/internal/memline"

// COC implements a Coverage-Oriented Compression menu in the spirit of
// Kim et al. [20] (Frugal ECC): 28 variable-length compressors applied
// per 64-bit word, chosen to maximize the fraction of lines that shrink
// at least a little, rather than the compression ratio of the lines that
// shrink a lot. Each word is encoded as a 5-bit compressor tag plus a
// variable payload; the per-word streams are concatenated, so — exactly
// as the paper observes in §VIII.A — bit positions shift between
// consecutive writes and the scheme destroys the bit-level locality that
// differential writes exploit.
//
// The menu (28 entries):
//
//	 0..16  sign-extended value, payload width from cocSEWidths
//	17      repeated byte (8)
//	18      repeated 16-bit halfword (16)
//	19      repeated 32-bit word (32)
//	20..26  signed delta from the previous original word, width from
//	        cocDeltaWidths (word 0 has no previous word and cannot use these)
//	27      raw (64)
var (
	cocSEWidths    = []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60}
	cocDeltaWidths = []int{4, 8, 16, 24, 32, 40, 48}
)

const (
	cocTagBits  = 5
	cocRepByte  = 17
	cocRep16    = 18
	cocRep32    = 19
	cocDelta0   = 20
	cocRawTag   = 27
	cocNumComps = 28
)

// NumCOCCompressors is the size of the compressor menu, matching the 28
// compressors of [20].
const NumCOCCompressors = cocNumComps

// cocBest returns the cheapest (tag, payload, payloadBits) for word v
// given the previous original word prev (valid only when hasPrev).
func cocBest(v, prev uint64, hasPrev bool) (tag int, payload uint64, bits int) {
	tag, payload, bits = cocRawTag, v, 64
	for i, w := range cocSEWidths {
		if w < bits && memline.FitsSigned(v, w) {
			tag, payload, bits = i, v&(1<<uint(w)-1), w
			break // widths ascend; first hit is cheapest SE
		}
	}
	if 8 < bits && isRepeated(v, 8) {
		tag, payload, bits = cocRepByte, v&0xff, 8
	}
	if 16 < bits && isRepeated(v, 16) {
		tag, payload, bits = cocRep16, v&0xffff, 16
	}
	if 32 < bits && isRepeated(v, 32) {
		tag, payload, bits = cocRep32, v&0xffffffff, 32
	}
	if hasPrev {
		d := v - prev
		for i, w := range cocDeltaWidths {
			if w < bits && memline.FitsSigned(d, w) {
				tag, payload, bits = cocDelta0+i, d&(1<<uint(w)-1), w
				break
			}
		}
	}
	return tag, payload, bits
}

func isRepeated(v uint64, unit int) bool {
	shift := uint(unit)
	mask := uint64(1)<<shift - 1
	if unit == 64 {
		return true
	}
	first := v & mask
	for s := shift; s < 64; s += shift {
		if v>>s&mask != first {
			return false
		}
	}
	return true
}

// COCMaxBits is the worst-case COC stream length (every word raw plus
// its tag), sizing fixed scratch buffers for COCCompressTo.
const COCMaxBits = memline.LineBits + memline.LineWords*cocTagBits

// COCCompress encodes the line and returns the packed stream and its
// length in bits.
func COCCompress(l *memline.Line) ([]byte, int) {
	w := NewBitWriter(COCMaxBits)
	bits := COCCompressTo(l, w)
	return w.Bytes(), bits
}

// COCCompressTo encodes the line into w (which the caller may back with
// stack storage of at least COCMaxBits via WrapBitWriter) and returns
// the stream length in bits. The packed bytes are w.Bytes().
func COCCompressTo(l *memline.Line, w *BitWriter) int {
	var prev uint64
	for i := 0; i < memline.LineWords; i++ {
		v := l.Word(i)
		tag, payload, bits := cocBest(v, prev, i > 0)
		w.WriteBits(uint64(tag), cocTagBits)
		w.WriteBits(payload, bits)
		prev = v
	}
	return w.Len()
}

// COCSize returns only the compressed size in bits, without packing the
// stream.
func COCSize(l *memline.Line) int {
	size := 0
	var prev uint64
	for i := 0; i < memline.LineWords; i++ {
		v := l.Word(i)
		_, _, bits := cocBest(v, prev, i > 0)
		size += cocTagBits + bits
		prev = v
	}
	return size
}

// COCDecompress reconstructs a line from a COC stream.
func COCDecompress(buf []byte) memline.Line {
	r := NewBitReader(buf)
	var l memline.Line
	var prev uint64
	for i := 0; i < memline.LineWords; i++ {
		tag := int(r.ReadBits(cocTagBits))
		var v uint64
		switch {
		case tag < len(cocSEWidths):
			w := cocSEWidths[tag]
			v = memline.SignExtend(r.ReadBits(w), w)
		case tag == cocRepByte:
			b := r.ReadBits(8)
			v = b * 0x0101010101010101
		case tag == cocRep16:
			h := r.ReadBits(16)
			v = h * 0x0001000100010001
		case tag == cocRep32:
			x := r.ReadBits(32)
			v = x | x<<32
		case tag >= cocDelta0 && tag < cocDelta0+len(cocDeltaWidths):
			w := cocDeltaWidths[tag-cocDelta0]
			v = prev + memline.SignExtend(r.ReadBits(w), w)
		default: // cocRawTag
			v = r.ReadBits(64)
		}
		l.SetWord(i, v)
		prev = v
	}
	return l
}
