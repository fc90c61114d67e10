package wlcrc_test

import (
	"testing"

	"wlcrc"
)

func TestSchemeNamesAllConstructible(t *testing.T) {
	for _, name := range wlcrc.SchemeNames() {
		s, err := wlcrc.NewScheme(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s.Name() == "" {
			t.Errorf("%s: empty Name()", name)
		}
	}
	if _, err := wlcrc.NewScheme("bogus"); err == nil {
		t.Error("bogus scheme must fail")
	}
}

func TestMustSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	wlcrc.MustScheme("bogus")
}

// scalarOnlyScheme exposes only the wlcrc.Scheme methods of the scheme
// it wraps: a caller-defined scheme with no plane codec, no counter and
// no compression gate, which Memory drives through its pack/unpack
// adapter.
type scalarOnlyScheme struct{ wlcrc.Scheme }

// memoryRoundTrip writes a deterministic stream over a small footprint
// into mem, checking that every address reads back its latest content
// after each write, and returns the per-write infos.
func memoryRoundTrip(t *testing.T, mem *wlcrc.Memory) []wlcrc.WriteInfo {
	t.Helper()
	last := map[uint64]wlcrc.Line{}
	var infos []wlcrc.WriteInfo
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 400; i++ {
		var ws [8]uint64
		for w := range ws {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			ws[w] = x
			if i%2 == 0 {
				ws[w] &= 0xff // small ints: the compressible half
			}
		}
		addr := x % 16
		data := wlcrc.LineFromWords(ws)
		infos = append(infos, mem.Write(addr, data))
		last[addr] = data
		if got := mem.Read(addr); got != data {
			t.Fatalf("%s: write %d: addr %d reads back wrong content", mem.Scheme().Name(), i, addr)
		}
	}
	for addr, want := range last {
		if got := mem.Read(addr); got != want {
			t.Fatalf("%s: addr %d lost its content", mem.Scheme().Name(), addr)
		}
	}
	if mem.Lines() != len(last) {
		t.Errorf("%s: Lines = %d, want %d", mem.Scheme().Name(), mem.Lines(), len(last))
	}
	return infos
}

// TestMemoryCodecPathsRoundTrip drives Memory through its two
// non-trivial codec paths: VCC-4's counter-keyed plane codec, and the
// adapter serving a scalar-only caller scheme. The adapter must price
// every write exactly like the wrapped scheme's native plane codec
// (only the compression flag differs: a gateless scheme counts every
// write as encoded).
func TestMemoryCodecPathsRoundTrip(t *testing.T) {
	vcc := memoryRoundTrip(t, wlcrc.NewMemory(wlcrc.MustScheme("VCC-4")))
	for i, info := range vcc {
		if info.EnergyPJ <= 0 || !info.Compressed {
			t.Fatalf("VCC-4 write %d: info = %+v", i, info)
		}
	}
	native := memoryRoundTrip(t, wlcrc.NewMemory(wlcrc.MustScheme("WLCRC-16")))
	adapted := memoryRoundTrip(t, wlcrc.NewMemory(scalarOnlyScheme{wlcrc.MustScheme("WLCRC-16")}))
	for i := range native {
		n, a := native[i], adapted[i]
		if !a.Compressed {
			t.Fatalf("write %d: gateless scheme reported a raw write", i)
		}
		n.Compressed, a.Compressed = false, false
		if n != a {
			t.Fatalf("write %d: adapter priced %+v, native plane codec %+v", i, a, n)
		}
	}
}

func TestMemoryWriteReadRoundTrip(t *testing.T) {
	mem := wlcrc.NewMemory(wlcrc.MustScheme("WLCRC-16"))
	var ws [8]uint64
	for i := range ws {
		ws[i] = uint64(i) * 0x1111
	}
	data := wlcrc.LineFromWords(ws)
	info := mem.Write(7, data)
	if info.EnergyPJ <= 0 || info.UpdatedCells <= 0 {
		t.Errorf("write info = %+v", info)
	}
	if !info.Compressed {
		t.Error("small-int line should take the compressed path")
	}
	if got := mem.Read(7); got != data {
		t.Error("read-back mismatch")
	}
	if mem.Read(99) != (wlcrc.Line{}) {
		t.Error("unwritten line must read zero")
	}
	if !mem.Written(7) || mem.Written(99) {
		t.Error("Written() inconsistent")
	}
	if mem.Lines() != 1 {
		t.Errorf("Lines = %d", mem.Lines())
	}
}

func TestMemoryRewriteSameDataFree(t *testing.T) {
	mem := wlcrc.NewMemory(wlcrc.MustScheme("WLCRC-16"))
	data := wlcrc.LineFromWords([8]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	mem.Write(0, data)
	info := mem.Write(0, data)
	if info.EnergyPJ != 0 || info.UpdatedCells != 0 {
		t.Errorf("rewrite of identical data cost %+v", info)
	}
}

func TestMemoryStats(t *testing.T) {
	mem := wlcrc.NewMemory(wlcrc.MustScheme("Baseline"))
	w, err := wlcrc.NewWorkload("gcc", 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		r := w.Next()
		mem.Write(r.Addr, r.New)
	}
	st := mem.Stats()
	if st.Writes != 300 {
		t.Errorf("writes = %d", st.Writes)
	}
	if st.AvgEnergyPJ() <= 0 || st.AvgUpdatedCells() <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWLCRCBeatsBaselineViaPublicAPI(t *testing.T) {
	base := wlcrc.NewMemory(wlcrc.MustScheme("Baseline"))
	fine := wlcrc.NewMemory(wlcrc.MustScheme("WLCRC-16"))
	w, err := wlcrc.NewWorkload("mcf", 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		r := w.Next()
		base.Write(r.Addr, r.New)
		fine.Write(r.Addr, r.New)
	}
	if fine.Stats().AvgEnergyPJ() >= base.Stats().AvgEnergyPJ() {
		t.Errorf("WLCRC-16 %.0f pJ >= baseline %.0f pJ",
			fine.Stats().AvgEnergyPJ(), base.Stats().AvgEnergyPJ())
	}
}

func TestOptions(t *testing.T) {
	s, err := wlcrc.NewScheme("WLCRC-16", wlcrc.WithMultiObjective(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "WLCRC-16(T=1%)" {
		t.Errorf("Name = %q", s.Name())
	}
	// Scaled energy levels still produce a working encoder.
	s2, err := wlcrc.NewScheme("WLCRC-16", wlcrc.WithEnergyLevels(0, 20, 75, 135))
	if err != nil {
		t.Fatal(err)
	}
	mem := wlcrc.NewMemory(s2)
	data := wlcrc.LineFromWords([8]uint64{42, 0, 0, 0, 0, 0, 0, 0})
	mem.Write(0, data)
	if mem.Read(0) != data {
		t.Error("round trip with scaled energies failed")
	}
}

func TestWorkloadNames(t *testing.T) {
	names := wlcrc.WorkloadNames()
	if len(names) != 13 {
		t.Errorf("got %d workloads, want 13", len(names))
	}
	for _, n := range names {
		if _, err := wlcrc.NewWorkload(n, 64, 1); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := wlcrc.NewWorkload("bogus", 0, 1); err == nil {
		t.Error("bogus workload must fail")
	}
}

func TestDisturbSampling(t *testing.T) {
	mem := wlcrc.NewMemory(wlcrc.MustScheme("Baseline"), wlcrc.WithDisturbSampling(7))
	w, _ := wlcrc.NewWorkload("lesl", 64, 2)
	var total float64
	for i := 0; i < 500; i++ {
		r := w.Next()
		info := mem.Write(r.Addr, r.New)
		if info.DisturbErrors != float64(int(info.DisturbErrors)) {
			t.Fatal("sampled disturbance must be integral")
		}
		total += info.DisturbErrors
	}
	if total == 0 {
		t.Error("no disturbance errors sampled in 500 writes")
	}
}

func TestEnergyModelExposed(t *testing.T) {
	em := wlcrc.EnergyModel()
	if em.Reset != 36 || em.Set[3] != 547 {
		t.Errorf("EnergyModel = %+v", em)
	}
}
