// Package compress implements the compression substrates the paper builds
// on or compares against: Word-Level Compression (WLC, the paper's own
// §IV contribution), Frequent Pattern Compression (FPC [2]),
// Base-Delta-Immediate (BDI [26]), the combined FPC+BDI selector used by
// DIN [16], and a Coverage-Oriented Compression (COC [20]) menu of 28
// variable-length word compressors.
//
// FPC, BDI and COC produce variable-length bit streams; BitWriter and
// BitReader provide the LSB-first bit packing they share. WLC is special:
// it does not repack bits — it frees a fixed field at the top of every
// 64-bit word, preserving bit positions, which is the property that makes
// differential writes effective (paper §VIII.A).
package compress

import "encoding/binary"

// BitWriter accumulates a bit stream, least-significant bit first within
// each byte, matching the line bit numbering of package memline.
//
// Bits collect in a 64-bit accumulator; each time it fills, the writer
// stores it as one little-endian word. Bytes appends the pending partial
// word, so the stream never needs a per-byte zero fill: every byte it
// returns was stored whole, the final one zero-padded.
type BitWriter struct {
	buf  []byte // whole flushed words; len is a multiple of 8
	acc  uint64 // pending bits above the flushed words, LSB first
	nacc uint   // number of pending bits, < 64
}

// NewBitWriter returns a writer with capacity preallocated for sizeBits.
func NewBitWriter(sizeBits int) *BitWriter {
	return &BitWriter{buf: make([]byte, 0, (sizeBits+7)/8)}
}

// WrapBitWriter returns a value writer over caller storage. As long as
// the stream fits cap(buf), writing never allocates — encode hot paths
// wrap fixed-size stack arrays.
func WrapBitWriter(buf []byte) BitWriter { return BitWriter{buf: buf[:0]} }

// Reset clears the writer for reuse, keeping its backing buffer.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nacc = 0, 0
}

// WriteBits appends the n low bits of v, LSB first. n must be in [0, 64].
//
// Growth is deliberately written without append: append makes escape
// analysis move every stack-backed writer to the heap, defeating
// WrapBitWriter's purpose. With a right-sized buffer (every compressor
// here has a known worst case) the grow branch never runs and the call
// is allocation-free. A capacity of ceil(bits/8) bytes is enough: whole
// words are flushed only once 64 more bits exist.
func (w *BitWriter) WriteBits(v uint64, n int) {
	if n <= 0 {
		return
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	for (w.Len()+n+7)/8 > cap(w.buf) {
		w.grow()
	}
	w.acc |= v << w.nacc
	if w.nacc += uint(n); w.nacc < 64 {
		return
	}
	l := len(w.buf)
	w.buf = w.buf[:l+8]
	binary.LittleEndian.PutUint64(w.buf[l:], w.acc)
	w.nacc -= 64
	// The bits of v that did not fit; a shift by 64 (v written whole
	// at a word boundary) yields zero.
	w.acc = v >> (uint(n) - w.nacc)
}

// grow replaces the backing buffer with a larger heap copy; only hit
// when a writer was constructed with too little capacity.
func (w *BitWriter) grow() {
	nb := make([]byte, len(w.buf), 2*cap(w.buf)+8)
	copy(nb, w.buf)
	w.buf = nb
}

// Len returns the number of bits written so far.
func (w *BitWriter) Len() int { return 8*len(w.buf) + int(w.nacc) }

// Bytes returns the packed stream, ceil(Len()/8) bytes. The final byte
// is zero-padded. The slice aliases the writer's storage: later writes
// may change it.
func (w *BitWriter) Bytes() []byte {
	l := len(w.buf)
	out := w.buf[:l+int(w.nacc+7)/8]
	for i := range out[l:] {
		out[l+i] = byte(w.acc >> (8 * uint(i)))
	}
	return out
}

// BitReader consumes a bit stream produced by BitWriter.
type BitReader struct {
	buf []byte
	pos int
}

// NewBitReader returns a reader over buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// WrapBitReader returns a value reader over buf, the allocation-free
// counterpart of NewBitReader for hot paths.
func WrapBitReader(buf []byte) BitReader { return BitReader{buf: buf} }

// Reset repoints the reader at buf for reuse.
func (r *BitReader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
}

// ReadBits consumes the next n bits and returns them LSB first. n must
// be in [0, 64]. Reading past the end yields zero bits, mirroring the
// zero padding a fixed-size memory line provides. Away from the end of
// the stream a read is one unaligned 64-bit load plus, when the field
// straddles it, one more byte.
func (r *BitReader) ReadBits(n int) uint64 {
	if n <= 0 {
		return 0
	}
	idx := r.pos >> 3
	off := uint(r.pos) & 7
	r.pos += n
	var v uint64
	if idx+9 <= len(r.buf) {
		v = binary.LittleEndian.Uint64(r.buf[idx:]) >> off
		if off+uint(n) > 64 {
			v |= uint64(r.buf[idx+8]) << (64 - off)
		}
	} else if idx < len(r.buf) {
		// Near the end: a byte at a time, zeros past it.
		v = uint64(r.buf[idx] >> off)
		for i, got := idx+1, 8-int(off); got < n && i < len(r.buf); i, got = i+1, got+8 {
			v |= uint64(r.buf[i]) << uint(got)
		}
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	return v
}

// Pos returns the number of bits consumed so far.
func (r *BitReader) Pos() int { return r.pos }
