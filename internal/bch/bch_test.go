package bch

import (
	"testing"
	"testing/quick"

	"wlcrc/internal/prng"
)

// lfsrEncode is the bit-serial reference encoder: polynomial division of
// msg(x)*x^20 by g(x) over GF(2), one message bit per shift of a
// one-byte-per-bit register. Parity, EncodeTo and Syndromes must agree
// with it bit for bit.
func lfsrEncode(c *Code, msg []uint8) []uint8 {
	rem := make([]uint8, ParityBits)
	for i := len(msg) - 1; i >= 0; i-- {
		feedback := msg[i] ^ rem[ParityBits-1]
		copy(rem[1:], rem[:ParityBits-1])
		rem[0] = 0
		if feedback == 1 {
			for j := 0; j < ParityBits; j++ {
				rem[j] ^= c.gen[j]
			}
		}
	}
	return rem
}

// lfsrSyndromes is the reference syndrome evaluation: the received word
// at alpha and alpha^3, one field term per set bit.
func lfsrSyndromes(c *Code, codeword []uint8) (s1, s3 uint16) {
	for i, bit := range codeword {
		if bit == 0 {
			continue
		}
		s1 ^= c.field.Exp(i)
		s3 ^= c.field.Exp(3 * i)
	}
	return s1, s3
}

// packMsg packs 0/1 message bits LSB-first, the layout Parity reads.
func packMsg(msg []uint8) []byte {
	out := make([]byte, (len(msg)+7)/8)
	for i, b := range msg {
		out[i/8] |= b << uint(i%8)
	}
	return out
}

// checkAgainstLFSR compares every word-parallel entry point with the
// bit-serial references on one message, and the syndromes of the clean
// codeword and of copies with bits flipped at each position in flips.
func checkAgainstLFSR(t *testing.T, c *Code, msg []uint8, flips []int) {
	t.Helper()
	want := lfsrEncode(c, msg)
	packed := packMsg(msg)
	// Garbage above the message in the top byte must be ignored.
	if n := len(msg); n%8 != 0 {
		packed[n/8] |= 0xff << uint(n%8)
	}
	p := c.Parity(packed, len(msg))
	got := c.Encode(msg)
	for j := 0; j < ParityBits; j++ {
		if uint8(p>>uint(j)&1) != want[j] || got[j] != want[j] {
			t.Fatalf("len %d: parity bit %d: Parity %d, EncodeTo %d, LFSR %d",
				len(msg), j, p>>uint(j)&1, got[j], want[j])
		}
	}
	if p>>ParityBits != 0 {
		t.Fatalf("len %d: Parity %#x has bits above %d", len(msg), p, ParityBits)
	}
	cw := append(append([]uint8{}, want...), msg...)
	for _, pos := range append([]int{-1}, flips...) {
		if pos >= 0 {
			cw[pos%len(cw)] ^= 1
		}
		s1, s3 := c.Syndromes(cw)
		w1, w3 := lfsrSyndromes(c, cw)
		if s1 != w1 || s3 != w3 {
			t.Fatalf("len %d, flip %d: Syndromes (%d,%d), LFSR (%d,%d)", len(msg), pos, s1, s3, w1, w3)
		}
	}
}

// TestParityMatchesLFSRAllLengths runs the reference comparison over
// every message length the shortened code admits.
func TestParityMatchesLFSRAllLengths(t *testing.T) {
	c := New()
	r := prng.New(8)
	for n := 1; n <= MaxMessageBits; n++ {
		checkAgainstLFSR(t, c, randMsg(r, n), []int{r.Intn(n + ParityBits), r.Intn(n + ParityBits)})
	}
}

// FuzzParityMatchesLFSR drives the reference comparison with fuzzed
// message bits, lengths 1..MaxMessageBits and flip positions.
func FuzzParityMatchesLFSR(f *testing.F) {
	f.Add([]byte{0x01}, uint16(0), uint16(0), uint16(5))
	f.Add([]byte{0xff, 0x00, 0xa5}, uint16(491), uint16(3), uint16(511))
	f.Add([]byte{0x80, 0x7f, 0x12, 0x34, 0x56}, uint16(MaxMessageBits-1), uint16(1000), uint16(17))
	f.Add([]byte("dense and sparse message bits"), uint16(368), uint16(19), uint16(20))
	f.Fuzz(func(t *testing.T, data []byte, n, flip1, flip2 uint16) {
		nbits := 1 + int(n)%MaxMessageBits
		msg := make([]uint8, nbits)
		if len(data) > 0 {
			for i := range msg {
				msg[i] = data[i/8%len(data)] >> uint(i%8) & 1
			}
		}
		checkAgainstLFSR(t, New(), msg, []int{int(flip1), int(flip2)})
	})
}

// TestNewSharesTables pins that the byte table is built once per
// process: every New returns the same code.
func TestNewSharesTables(t *testing.T) {
	if New() != New() {
		t.Fatal("New built a second code")
	}
}

func makeCodeword(c *Code, msg []uint8) []uint8 {
	parity := c.Encode(msg)
	cw := make([]uint8, len(parity)+len(msg))
	copy(cw, parity)
	copy(cw[len(parity):], msg)
	return cw
}

func randMsg(r *prng.Xoshiro256, n int) []uint8 {
	msg := make([]uint8, n)
	for i := range msg {
		msg[i] = uint8(r.Intn(2))
	}
	return msg
}

func TestGeneratorDegree(t *testing.T) {
	c := New()
	g := c.Generator()
	if len(g) != ParityBits+1 {
		t.Fatalf("generator has %d coefficients, want 21", len(g))
	}
	if g[0] != 1 || g[ParityBits] != 1 {
		t.Error("generator must be monic with nonzero constant term")
	}
}

func TestCleanCodewordHasZeroSyndromes(t *testing.T) {
	c := New()
	r := prng.New(1)
	for _, n := range []int{1, 64, 369, 492} {
		msg := randMsg(r, n)
		cw := makeCodeword(c, msg)
		s1, s3 := c.Syndromes(cw)
		if s1 != 0 || s3 != 0 {
			t.Errorf("n=%d: clean codeword has syndromes %d, %d", n, s1, s3)
		}
		corrected, ok := c.Decode(cw)
		if !ok || corrected != 0 {
			t.Errorf("n=%d: decode of clean codeword: %d, %v", n, corrected, ok)
		}
	}
}

func TestCorrectSingleError(t *testing.T) {
	c := New()
	r := prng.New(2)
	msg := randMsg(r, 492)
	clean := makeCodeword(c, msg)
	for pos := 0; pos < len(clean); pos += 13 {
		cw := make([]uint8, len(clean))
		copy(cw, clean)
		cw[pos] ^= 1
		corrected, ok := c.Decode(cw)
		if !ok || corrected != 1 {
			t.Fatalf("pos %d: corrected=%d ok=%v", pos, corrected, ok)
		}
		for i := range cw {
			if cw[i] != clean[i] {
				t.Fatalf("pos %d: bit %d still wrong", pos, i)
			}
		}
	}
}

func TestCorrectDoubleError(t *testing.T) {
	c := New()
	r := prng.New(3)
	msg := randMsg(r, 492)
	clean := makeCodeword(c, msg)
	n := len(clean)
	for trial := 0; trial < 300; trial++ {
		p1 := r.Intn(n)
		p2 := r.Intn(n)
		if p1 == p2 {
			continue
		}
		cw := make([]uint8, n)
		copy(cw, clean)
		cw[p1] ^= 1
		cw[p2] ^= 1
		corrected, ok := c.Decode(cw)
		if !ok || corrected != 2 {
			t.Fatalf("positions %d,%d: corrected=%d ok=%v", p1, p2, corrected, ok)
		}
		for i := range cw {
			if cw[i] != clean[i] {
				t.Fatalf("positions %d,%d: bit %d still wrong", p1, p2, i)
			}
		}
	}
}

func TestTripleErrorDetectedOrMiscorrected(t *testing.T) {
	// A t=2 code cannot correct 3 errors. It must either report failure
	// or "correct" to some other codeword; it must never loop or panic,
	// and if it claims success the result must be a valid codeword.
	c := New()
	r := prng.New(4)
	msg := randMsg(r, 200)
	clean := makeCodeword(c, msg)
	n := len(clean)
	for trial := 0; trial < 100; trial++ {
		cw := make([]uint8, n)
		copy(cw, clean)
		seen := map[int]bool{}
		for len(seen) < 3 {
			p := r.Intn(n)
			if !seen[p] {
				seen[p] = true
				cw[p] ^= 1
			}
		}
		_, ok := c.Decode(cw)
		if ok {
			if s1, s3 := c.Syndromes(cw); s1 != 0 || s3 != 0 {
				t.Fatal("Decode claimed success but left nonzero syndromes")
			}
		}
	}
}

func TestQuickRoundTripWithErrors(t *testing.T) {
	c := New()
	r := prng.New(5)
	f := func(seed uint32, nerr8 uint8) bool {
		rr := prng.New(uint64(seed))
		msg := randMsg(rr, 128+rr.Intn(300))
		cw := makeCodeword(c, msg)
		nerr := int(nerr8) % 3 // 0, 1 or 2 errors
		positions := map[int]bool{}
		for len(positions) < nerr {
			positions[r.Intn(len(cw))] = true
		}
		for p := range positions {
			cw[p] ^= 1
		}
		corrected, ok := c.Decode(cw)
		if !ok || corrected != nerr {
			return false
		}
		clean := makeCodeword(c, msg)
		for i := range cw {
			if cw[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDecodeAllocFree pins that the two-error path, which the fault
// model's Correct takes on every multi-bit repair, does not allocate.
func TestDecodeAllocFree(t *testing.T) {
	c := New()
	clean := makeCodeword(c, randMsg(prng.New(9), 492))
	cw := make([]uint8, len(clean))
	allocs := testing.AllocsPerRun(100, func() {
		copy(cw, clean)
		cw[3] ^= 1
		cw[400] ^= 1
		if n, ok := c.Decode(cw); n != 2 || !ok {
			t.Fatalf("Decode = %d, %v", n, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("Decode allocates %.1f times per two-error call", allocs)
	}
}

func TestEncodeTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New().Encode(make([]uint8, MaxMessageBits+1))
}

func BenchmarkEncode492(b *testing.B) {
	c := New()
	msg := randMsg(prng.New(6), 492)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(msg)
	}
}

// BenchmarkParity492 is the packed kernel alone on DIN's message size.
func BenchmarkParity492(b *testing.B) {
	c := New()
	msg := packMsg(randMsg(prng.New(6), 492))
	b.ReportAllocs()
	b.ResetTimer()
	var p uint32
	for i := 0; i < b.N; i++ {
		p ^= c.Parity(msg, 492)
	}
	sinkParity = p
}

// BenchmarkDecodeClean is the fast path of Decode: a clean codeword
// reduces to a zero remainder and returns without the locator search.
func BenchmarkDecodeClean(b *testing.B) {
	c := New()
	cw := makeCodeword(c, randMsg(prng.New(7), 492))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, ok := c.Decode(cw); n != 0 || !ok {
			b.Fatal("clean codeword did not decode clean")
		}
	}
}

var sinkParity uint32

func BenchmarkDecodeTwoErrors(b *testing.B) {
	c := New()
	r := prng.New(7)
	msg := randMsg(r, 492)
	clean := makeCodeword(c, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := make([]uint8, len(clean))
		copy(cw, clean)
		cw[i%len(cw)] ^= 1
		cw[(i*7+13)%len(cw)] ^= 1
		c.Decode(cw)
	}
}
