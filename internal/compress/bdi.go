package compress

import "wlcrc/internal/memline"

// BDI implements Base-Delta-Immediate compression (Pekhimenko et al.
// [26]) for a 64-byte line. The line is viewed as segments of 2, 4 or 8
// bytes; each segment is stored either as a small signed delta from an
// implicit zero base or as a delta from one explicit base (the first
// segment that does not fit the zero base). A per-segment mask selects
// the base, which is the "immediate" part of the scheme.
//
// Encodings tried, cheapest wins (tag is 4 bits):
//
//	0  zeros            line of all zero bytes                (4 bits)
//	1  rep8             eight identical 64-bit values         (4+64)
//	2  base8-delta1     8-byte segments, 1-byte deltas        (4+64+8*8 +8)
//	3  base8-delta2                                          (4+64+8*16+8)
//	4  base8-delta4                                          (4+64+8*32+8)
//	5  base4-delta1     4-byte segments, 1-byte deltas        (4+32+16*8+16)
//	6  base4-delta2                                          (4+32+16*16+16)
//	7  base2-delta1     2-byte segments, 1-byte deltas        (4+16+32*8+32)
//	15 raw              uncompressed                          (4+512)
const (
	bdiZeros = iota
	bdiRep8
	bdiB8D1
	bdiB8D2
	bdiB8D4
	bdiB4D1
	bdiB4D2
	bdiB2D1
	bdiRaw = 15
)

type bdiConfig struct {
	tag      int
	segBytes int
	dltBytes int
}

var bdiConfigs = []bdiConfig{
	{bdiB8D1, 8, 1},
	{bdiB8D2, 8, 2},
	{bdiB8D4, 8, 4},
	{bdiB4D1, 4, 1},
	{bdiB4D2, 4, 2},
	{bdiB2D1, 2, 1},
}

// bdiMaxSegs is the largest segment count of any configuration
// (2-byte segments over a 64-byte line), sizing the fixed scratch
// arrays the allocation-free compressor works in.
const bdiMaxSegs = memline.LineBytes / 2

// bdiSegments fills segs with the line's little-endian segments and
// returns the count, cutting each 64-bit word into 8/segBytes fields.
func bdiSegments(l *memline.Line, segBytes int, segs *[bdiMaxSegs]uint64) int {
	per := 8 / segBytes
	bits := uint(segBytes * 8)
	mask := ^uint64(0) >> (64 - bits)
	n := 0
	for w := 0; w < memline.LineWords; w++ {
		v := l.Word(w)
		for j := 0; j < per; j++ {
			segs[n] = v & mask
			v >>= bits
			n++
		}
	}
	return n
}

// bdiTry attempts one base+delta configuration over segs, writing the
// per-segment zero-base mask and deltas into caller scratch. It returns
// the explicit base and ok=false if some segment fits neither base.
func bdiTry(segs []uint64, segBytes, dltBytes int, mask *[bdiMaxSegs]bool, deltas *[bdiMaxSegs]uint64) (base uint64, ok bool) {
	segBits := segBytes * 8
	dltBits := dltBytes * 8
	haveBase := false
	for i, s := range segs {
		mask[i] = false
		sv := memline.SignExtend(s, segBits)
		if memline.FitsSigned(sv, dltBits) {
			mask[i] = true // zero base
			deltas[i] = s & (1<<uint(dltBits) - 1)
			continue
		}
		if !haveBase {
			base = s
			haveBase = true
		}
		d := (s - base) & (1<<uint(segBits) - 1)
		dv := memline.SignExtend(d, segBits)
		if !memline.FitsSigned(dv, dltBits) {
			return 0, false
		}
		deltas[i] = d & (1<<uint(dltBits) - 1)
	}
	return base, true
}

func bdiConfigSize(segBytes, dltBytes int) int {
	n := memline.LineBytes / segBytes
	return 4 + segBytes*8 + n*dltBytes*8 + n
}

// BDIMaxBits is the worst-case BDI stream length (raw tag plus the
// uncompressed line), sizing fixed scratch buffers for BDICompressTo.
const BDIMaxBits = 4 + memline.LineBits

// BDICompress encodes the line with the cheapest applicable BDI encoding
// and returns the packed stream and its size in bits.
func BDICompress(l *memline.Line) ([]byte, int) {
	w := NewBitWriter(BDIMaxBits)
	bits := BDICompressTo(l, w)
	return w.Bytes(), bits
}

// BDICompressTo encodes the line into w (back it with at least
// BDIMaxBits of storage) and returns w.Len(). All working state lives
// in fixed-size scratch, so the call itself never allocates.
func BDICompressTo(l *memline.Line, w *BitWriter) int {
	tag, ci, _ := bdiChoose(l)
	bdiWrite(l, w, tag, ci)
	return w.Len()
}

// BDISize returns only the compressed size in bits; it chooses the
// encoding without packing the stream.
func BDISize(l *memline.Line) int {
	_, _, size := bdiChoose(l)
	return size
}

// bdiChoose picks the cheapest applicable encoding: its tag, the index
// of its base+delta configuration (-1 for zeros, rep8 and raw) and its
// size in bits.
func bdiChoose(l *memline.Line) (tag, ci, size int) {
	zero := true
	for _, b := range l {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return bdiZeros, -1, 4
	}
	rep := true
	w0 := l.Word(0)
	for i := 1; i < memline.LineWords; i++ {
		if l.Word(i) != w0 {
			rep = false
			break
		}
	}
	if rep {
		return bdiRep8, -1, 4 + 64
	}
	// Base+delta configs, cheapest feasible wins; ties keep the earlier.
	tag, ci, size = bdiRaw, -1, BDIMaxBits
	var segs, deltas [bdiMaxSegs]uint64
	var mask [bdiMaxSegs]bool
	for i, cfg := range bdiConfigs {
		cs := bdiConfigSize(cfg.segBytes, cfg.dltBytes)
		if cs >= size {
			continue
		}
		n := bdiSegments(l, cfg.segBytes, &segs)
		if _, ok := bdiTry(segs[:n], cfg.segBytes, cfg.dltBytes, &mask, &deltas); ok {
			tag, ci, size = cfg.tag, i, cs
		}
	}
	return tag, ci, size
}

// bdiWrite packs the encoding bdiChoose picked.
func bdiWrite(l *memline.Line, w *BitWriter, tag, ci int) {
	w.WriteBits(uint64(tag), 4)
	switch {
	case tag == bdiZeros:
	case tag == bdiRep8:
		w.WriteBits(l.Word(0), 64)
	case ci < 0: // raw
		for i := 0; i < memline.LineWords; i++ {
			w.WriteBits(l.Word(i), 64)
		}
	default:
		cfg := bdiConfigs[ci]
		var segs, deltas [bdiMaxSegs]uint64
		var mask [bdiMaxSegs]bool
		n := bdiSegments(l, cfg.segBytes, &segs)
		base, _ := bdiTry(segs[:n], cfg.segBytes, cfg.dltBytes, &mask, &deltas)
		w.WriteBits(base, cfg.segBytes*8)
		var mbits uint64 // one bit per segment, at most 32
		for i, m := range mask[:n] {
			if m {
				mbits |= 1 << uint(i)
			}
		}
		w.WriteBits(mbits, n)
		for _, d := range deltas[:n] {
			w.WriteBits(d, cfg.dltBytes*8)
		}
	}
}

// BDIDecompress reconstructs a line from a BDI stream.
func BDIDecompress(buf []byte) memline.Line {
	r := NewBitReader(buf)
	tag := int(r.ReadBits(4))
	var l memline.Line
	switch tag {
	case bdiZeros:
		return l
	case bdiRep8:
		v := r.ReadBits(64)
		for i := 0; i < memline.LineWords; i++ {
			l.SetWord(i, v)
		}
		return l
	case bdiRaw:
		for i := 0; i < memline.LineWords; i++ {
			l.SetWord(i, r.ReadBits(64))
		}
		return l
	}
	var cfg bdiConfig
	found := false
	for _, c := range bdiConfigs {
		if c.tag == tag {
			cfg, found = c, true
			break
		}
	}
	if !found {
		return l // corrupt stream decodes to zeros
	}
	segBits := cfg.segBytes * 8
	dltBits := cfg.dltBytes * 8
	n := memline.LineBytes / cfg.segBytes
	base := r.ReadBits(segBits)
	var mask [bdiMaxSegs]bool
	for i := 0; i < n; i++ {
		mask[i] = r.ReadBits(1) == 1
	}
	segMask := ^uint64(0)
	if segBits < 64 {
		segMask = 1<<uint(segBits) - 1
	}
	for i := 0; i < n; i++ {
		d := memline.SignExtend(r.ReadBits(dltBits), dltBits)
		var v uint64
		if mask[i] {
			v = d & segMask
		} else {
			v = (base + d) & segMask
		}
		for b := 0; b < cfg.segBytes; b++ {
			l[i*cfg.segBytes+b] = byte(v >> uint(8*b))
		}
	}
	return l
}

// FPCBDIMaxBits is the worst-case FPC+BDI stream length: the selector
// bit plus the larger of the two substreams' worst cases.
const FPCBDIMaxBits = 1 + FPCMaxBits

// FPCBDISize returns the size in bits of the better of FPC and BDI for
// the line, plus one selector bit, which is how DIN [16] and Figure 4
// account for the combined FPC+BDI scheme. Neither stream is packed.
func FPCBDISize(l *memline.Line) int {
	return min(FPCSize(l), BDISize(l)) + 1
}

// FPCBDICompress encodes with the better of FPC and BDI behind a one-bit
// selector (0 = FPC, 1 = BDI).
func FPCBDICompress(l *memline.Line) ([]byte, int) {
	w := NewBitWriter(FPCBDIMaxBits)
	bits := FPCBDICompressTo(l, w)
	return w.Bytes(), bits
}

// FPCBDICompressTo encodes into w (back it with at least FPCBDIMaxBits
// of storage) and returns w.Len(). Both sizes are computed first and only
// the winner is packed, BDI on a strict win, so the call never
// allocates.
func FPCBDICompressTo(l *memline.Line, w *BitWriter) int {
	tag, ci, bBits := bdiChoose(l)
	if bBits < FPCSize(l) {
		w.WriteBits(1, 1)
		bdiWrite(l, w, tag, ci)
	} else {
		w.WriteBits(0, 1)
		FPCCompressTo(l, w)
	}
	return w.Len()
}

// FPCBDIDecompress inverts FPCBDICompress.
func FPCBDIDecompress(buf []byte) memline.Line {
	r := WrapBitReader(buf)
	sel := r.ReadBits(1)
	var back [(memline.LineBits + 16 + 7) / 8]byte
	w := WrapBitWriter(back[:])
	extractStream(&r, &w, memline.LineBits+16)
	if sel == 1 {
		return BDIDecompress(w.Bytes())
	}
	return FPCDecompress(w.Bytes())
}

// extractStream re-packs maxBits bits from r into w, realigning a
// stream that sits at a non-byte offset.
func extractStream(r *BitReader, w *BitWriter, maxBits int) {
	for w.Len() < maxBits {
		n := maxBits - w.Len()
		if n > 64 {
			n = 64
		}
		w.WriteBits(r.ReadBits(n), n)
	}
}
