// Package bch implements a binary BCH code correcting up to two bit
// errors with 20 parity bits over GF(2^10), the "20-bit BCH code to
// correct any two write disturbance errors" that DIN [16] attaches to its
// encoded memory lines.
//
// The code is the double-error-correcting narrow-sense BCH code of
// natural length n = 1023, shortened to whatever message length the
// caller uses (DIN messages are at most 492 bits). The generator
// polynomial is g(x) = m1(x) * m3(x), the product of the minimal
// polynomials of alpha and alpha^3, of degree 20.
//
// Parity is computed word-parallel, the way a CRC is: the remainder of
// msg(x)*x^20 modulo g(x) lives in the low 20 bits of a uint32 and
// absorbs eight message bits per step through a 256-entry byte table,
// built once per process. Parity takes the message packed LSB-first
// into bytes; the bit-per-byte Encode/EncodeTo forms pack and call it.
//
// Syndromes use the same kernel. A received word c(x) reduces modulo
// g(x) to e(x) = stored parity XOR the parity recomputed from the
// received message bits, and because g(alpha) = g(alpha^3) = 0 the
// syndromes c(alpha), c(alpha^3) equal e(alpha), e(alpha^3): a 20-term
// evaluation instead of one per codeword bit. e = 0 means both
// syndromes vanish, which is how a caller holding packed bits checks a
// stored word with one Parity call and skips Decode when it is clean.
// Decode keeps the classic path for words that are not: the single-
// error test and, for two errors, the error-locator polynomial and its
// Chien search.
package bch

import (
	"encoding/binary"
	"math/bits"

	"wlcrc/internal/gf2"
)

// ParityBits is the number of parity bits of the t=2, m=10 code.
const ParityBits = 20

// MaxMessageBits is the maximum message length of the shortened code.
const MaxMessageBits = 1023 - ParityBits

// maxMessageBytes is MaxMessageBits packed eight to a byte.
const maxMessageBytes = (MaxMessageBits + 7) / 8

const parityMask = 1<<ParityBits - 1

// Code is a double-error-correcting BCH codec. It is safe for concurrent
// use after construction.
type Code struct {
	field *gf2.Field
	gen   []uint8 // generator polynomial coefficients, ascending, degree 20
	// table[v] is the remainder of v(x)*x^20 mod g(x) for the byte v
	// read MSB (highest degree) first.
	table [256]uint32
	// pow1[j], pow3[j] are alpha^j and alpha^(3j): the syndrome
	// contribution of remainder bit j.
	pow1, pow3 [ParityBits]uint16
}

// std is the process-wide code: the code has no parameters, so every
// New shares its tables.
var std = newCode()

// New returns the t=2 BCH code over GF(2^10).
func New() *Code { return std }

func newCode() *Code {
	f := gf2.NewField(10, 0)
	m1 := f.MinimalPoly(1)
	m3 := f.MinimalPoly(3)
	gen := polyMulGF2(m1, m3)
	if len(gen)-1 != ParityBits {
		panic("bch: generator polynomial degree != 20")
	}
	c := &Code{field: f, gen: gen}
	var low uint32 // g(x) without its x^20 term
	for j := 0; j < ParityBits; j++ {
		low |= uint32(gen[j]) << uint(j)
	}
	for v := range c.table {
		r := uint32(v) << (ParityBits - 8)
		for k := 0; k < 8; k++ {
			top := r >> (ParityBits - 1)
			r = r << 1 & parityMask
			if top == 1 {
				r ^= low
			}
		}
		c.table[v] = r
	}
	for j := 0; j < ParityBits; j++ {
		c.pow1[j] = f.Exp(j)
		c.pow3[j] = f.Exp(3 * j)
	}
	return c
}

func polyMulGF2(a, b []uint8) []uint8 {
	out := make([]uint8, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= bj
		}
	}
	return out
}

// Generator returns a copy of the generator polynomial coefficients in
// ascending degree order.
func (c *Code) Generator() []uint8 {
	out := make([]uint8, len(c.gen))
	copy(out, c.gen)
	return out
}

// Parity returns the ParityBits parity bits of the nbits-bit message
// packed LSB-first in msg (message bit i is msg[i/8]>>(i%8)&1), parity
// bit j in bit j of the result. Bits of msg beyond nbits are ignored.
// It is the word-parallel kernel behind Encode, EncodeTo and Syndromes.
func (c *Code) Parity(msg []byte, nbits int) uint32 {
	if nbits > MaxMessageBits {
		panic("bch: message too long for shortened code")
	}
	// The highest-degree coefficients enter first. Zero coefficients
	// above the message do not change a remainder that starts at zero,
	// so the partial top byte is its masked value fed in whole.
	i := (nbits+7)/8 - 1
	var r uint32
	if tail := uint(nbits) & 7; tail != 0 {
		r = c.table[msg[i]&(1<<tail-1)]
		i--
	}
	for ; i >= 0; i-- {
		r = r<<8&parityMask ^ c.table[byte(r>>(ParityBits-8))^msg[i]]
	}
	return r
}

// Encode computes the ParityBits parity bits for the message bits msg
// (each element 0 or 1, msg[0] is the lowest-degree coefficient). The
// systematic codeword is conceptually msg(x)*x^20 + parity(x): parity
// bits occupy positions 0..19, message bits positions 20..20+len(msg)-1.
func (c *Code) Encode(msg []uint8) []uint8 {
	parity := make([]uint8, ParityBits)
	c.EncodeTo(msg, parity)
	return parity
}

// EncodeTo computes the parity bits into caller storage — the
// allocation-free form of Encode. len(parity) must be ParityBits.
func (c *Code) EncodeTo(msg, parity []uint8) {
	if len(msg) > MaxMessageBits {
		panic("bch: message too long for shortened code")
	}
	if len(parity) != ParityBits {
		panic("bch: EncodeTo parity length != ParityBits")
	}
	var packed [maxMessageBytes]byte
	packBits(msg, packed[:])
	p := c.Parity(packed[:], len(msg))
	for j := range parity {
		parity[j] = uint8(p >> uint(j) & 1)
	}
}

// packBits packs 0/1 bytes LSB-first into dst, which must start zeroed.
// Eight bits at a time, a multiply gathers byte k's low bit into bit
// 56+k: the partial products of distinct bytes land on distinct bit
// positions, so no carry disturbs the top byte.
func packBits(src []uint8, dst []byte) {
	k := 0
	for ; k+8 <= len(src); k += 8 {
		x := binary.LittleEndian.Uint64(src[k:]) & 0x0101010101010101
		dst[k>>3] = byte(x * 0x0102040810204080 >> 56)
	}
	for ; k < len(src); k++ {
		dst[k>>3] |= (src[k] & 1) << uint(k&7)
	}
}

// Syndromes evaluates the received codeword at alpha and alpha^3.
// codeword[i] is the coefficient of x^i (parity first, then message).
func (c *Code) Syndromes(codeword []uint8) (s1, s3 uint16) {
	np := len(codeword)
	if np > ParityBits {
		np = ParityBits
	}
	var stored uint32
	for j, b := range codeword[:np] {
		stored |= uint32(b&1) << uint(j)
	}
	var packed [maxMessageBytes]byte
	msg := codeword[np:]
	if len(msg) > MaxMessageBits {
		panic("bch: codeword too long for shortened code")
	}
	packBits(msg, packed[:])
	return c.remainderSyndromes(stored ^ c.Parity(packed[:], len(msg)))
}

// remainderSyndromes returns the syndromes of a received word whose
// remainder modulo g(x) is e: its stored parity XOR the parity
// recomputed from its message bits. e = 0 gives (0, 0).
func (c *Code) remainderSyndromes(e uint32) (s1, s3 uint16) {
	for e != 0 {
		j := bits.TrailingZeros32(e)
		s1 ^= c.pow1[j]
		s3 ^= c.pow3[j]
		e &= e - 1
	}
	return s1, s3
}

// Decode corrects up to two bit errors in place. codeword is the full
// shortened codeword: parity bits at positions 0..19 followed by message
// bits. It returns the number of corrected bits and ok=false if the
// syndrome pattern is inconsistent with <= 2 errors within the codeword.
func (c *Code) Decode(codeword []uint8) (corrected int, ok bool) {
	f := c.field
	s1, s3 := c.Syndromes(codeword)
	if s1 == 0 && s3 == 0 {
		return 0, true
	}
	if s1 != 0 && s3 == f.Pow(s1, 3) {
		// Single error at position log(s1).
		pos := f.Log(s1)
		if pos >= len(codeword) {
			return 0, false // error located in the shortened (absent) region
		}
		codeword[pos] ^= 1
		return 1, true
	}
	if s1 == 0 {
		// s1 == 0 but s3 != 0 cannot happen with <= 2 errors.
		return 0, false
	}
	// Two errors: error locator sigma(x) = x^2 + s1*x + (s3/s1 + s1^2).
	sigma2 := f.Add(f.Div(s3, s1), f.Pow(s1, 2))
	if sigma2 == 0 {
		return 0, false
	}
	// Chien search for roots x = alpha^i; error positions are the logs of
	// the roots' inverses... For sigma(x) = (x+X1)(x+X2) with error
	// locators X1 = alpha^p1, X2 = alpha^p2, the roots are X1 and X2
	// themselves here because sigma was built from elementary symmetric
	// functions of the locators.
	var positions [2]int
	found := 0
	for i := 0; i < len(codeword) && found < 2; i++ {
		x := f.Exp(i)
		if f.Add(f.Add(f.Mul(x, x), f.Mul(s1, x)), sigma2) == 0 {
			positions[found] = i
			found++
		}
	}
	if found != 2 {
		return 0, false
	}
	for _, p := range positions {
		codeword[p] ^= 1
	}
	// Verify.
	if v1, v3 := c.Syndromes(codeword); v1 != 0 || v3 != 0 {
		for _, p := range positions {
			codeword[p] ^= 1 // undo
		}
		return 0, false
	}
	return 2, true
}
