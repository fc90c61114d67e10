package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"wlcrc/internal/fault"
	"wlcrc/internal/memline"
	"wlcrc/internal/memsys"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
	"wlcrc/internal/trace"
)

// FuzzStuckRepair fuzzes the stuck-at fault pipeline end to end: the
// input selects an ECC budget, a spare-pool size, an endurance regime,
// a set of static stuck cells, and a write stream over a 16-line
// footprint; the replay runs with Verify on and graceful degradation.
// Checked invariants:
//
//   - a run only ever fails with a *DegradedError — the repair pipeline
//     must never corrupt an intended encode (Verify would abort);
//   - when no write was uncorrectable, every line reads back bit-exactly
//     through the controller read path (ECC recovery included);
//   - the entire outcome — metrics, per-line read results, retired
//     sets — is deterministic: an identical second replay reproduces it
//     exactly, uncorrectable reads included.
func FuzzStuckRepair(f *testing.F) {
	f.Add([]byte{0, 1, 0, 4, 1, 10, 3, 2, 200, 1, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{1, 2, 5, 12, 5, 100, 2, 5, 101, 2, 5, 102, 1, 9, 60, 3, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2})
	f.Add([]byte{3, 7, 3, 0, 7, 7, 7, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 0, 9, 4, 0, 0, 3, 0, 1, 3, 0, 2, 3, 1, 0, 3, 1, 1, 3, 15, 255, 0, 15, 0, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip("need a header")
		}
		cfg := fault.Config{
			Enabled:            true,
			ECCBits:            2 * (1 + int(data[0])%4),
			SpareLines:         1 + int(data[1])%8,
			MaxRetiredFraction: 1,
		}
		if e := int(data[2]) % 16; e != 0 {
			cfg.CellEndurance = uint32(e) + 1
			cfg.EnduranceSpread = 0.5
		}
		body := data[4:]
		nStatic := int(data[3]) % 24
		for len(body) >= 3 && nStatic > 0 {
			cfg.Static = append(cfg.Static, fault.StuckCell{
				Addr:  uint64(body[0]) % 16,
				Cell:  int(body[1]),
				State: pcm.State(body[2] % 4),
			})
			body = body[3:]
			nStatic--
		}
		n := len(body)
		if n == 0 {
			t.Skip("no requests")
		}
		if n > 300 {
			n = 300
		}
		rnd := prng.New(uint64(data[0])<<8 | uint64(data[2]) + 1)
		reqs := make([]trace.Request, n)
		final := map[uint64]*memline.Line{}
		for i := 0; i < n; i++ {
			var ws [memline.LineWords]uint64
			for w := range ws {
				ws[w] = rnd.Uint64()
			}
			reqs[i] = trace.Request{Addr: uint64(body[i]) % 16, New: memline.FromWords(ws)}
			final[reqs[i].Addr] = &reqs[i].New
		}

		type readResult struct {
			match bool
			err   string
		}
		replay := func() ([]Metrics, map[string]map[uint64]readResult) {
			opts := DefaultOptions() // Verify on
			opts.Faults = cfg
			s := newSerialEngine(opts, schemesForTest(t, "Baseline", "WLCRC-16")...)
			err := s.Run(&trace.SliceSource{Reqs: reqs}, 0)
			if err != nil {
				if !errors.As(err, new(*DegradedError)) {
					t.Fatalf("replay failed outside graceful degradation: %v", err)
				}
			}
			reads := map[string]map[uint64]readResult{}
			for _, u := range s.shards {
				rs := map[uint64]readResult{}
				var got memline.Line
				for addr, want := range final {
					ok, rerr := u.readLine(addr, &got)
					if !ok {
						t.Fatalf("%s: written addr %#x not resident", u.scheme.Name(), addr)
					}
					r := readResult{match: rerr == nil && got.Equal(want)}
					if rerr != nil {
						r.err = rerr.Error()
					}
					rs[addr] = r
					if u.fm.Stats.Uncorrectable == 0 && !r.match {
						t.Fatalf("%s: addr %#x reads back wrong with zero uncorrectable writes (stats %+v)",
							u.scheme.Name(), addr, u.fm.Stats)
					}
				}
				reads[u.scheme.Name()] = rs
			}
			return s.Metrics(), reads
		}
		m1, r1 := replay()
		m2, r2 := replay()
		if !reflect.DeepEqual(m1, m2) {
			t.Fatal("identical replays produced different metrics")
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatal("identical replays produced different read outcomes")
		}
	})
}

// fuzzGeometries is the geometry pool FuzzRouteSubShard draws from:
// the paper's Table II array plus small and degenerate configurations
// (down to a single bank with a single sub-shard, where the engine must
// behave like the serial simulator).
func fuzzGeometries() []memsys.Config {
	small := memsys.Config{Channels: 1, DIMMsPerChan: 1, BanksPerDIMM: 4,
		WriteQueueCap: 8, DrainThreshold: 0.8}
	odd := small
	odd.BanksPerDIMM = 3
	odd.SubShards = 2
	tiny := small
	tiny.BanksPerDIMM = 1
	tiny.SubShards = 1
	return []memsys.Config{memsys.TableII(), small, odd, tiny}
}

// FuzzRouteSubShard fuzzes the routed dispatcher over random address
// streams, geometries and worker counts. The input bytes select a
// geometry, a worker count and a line-data seed, then encode a request
// stream (two bytes per address). Checked invariants:
//
//   - the engine's cached integer routing agrees with the geometry's
//     memsys.Config.RouteOf for every address, and the unit decomposes
//     into exactly (BankOf, SubShardOf);
//   - no request is dropped or duplicated: every scheme's merged write
//     count equals the stream length;
//   - every line ends up resident in exactly the shard its address
//     routes to, and in no other shard;
//   - no request is reordered within its line's sub-shard: metrics of
//     the parallel run are bit-identical to the Workers=1 serial
//     reference of the same engine — with a counter-keyed scheme (VCC-4,
//     Verify on) in the set, any reordering of one address's writes
//     desynchronizes the write counter and fails the decode round-trip.
func FuzzRouteSubShard(f *testing.F) {
	f.Add([]byte{0, 2, 11, 0, 1, 0, 2, 1, 255, 0, 1, 2, 0})
	f.Add([]byte{1, 7, 3, 9, 9, 9, 9, 9, 9, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{2, 255, 42, 0, 0, 0, 1, 7, 7, 7, 7, 7, 7, 0, 1, 0, 1})
	f.Add([]byte{3, 1, 99, 5, 5, 5, 5, 4, 4, 250, 250, 3, 141, 59, 26})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip("need header + at least one address")
		}
		geos := fuzzGeometries()
		geo := geos[int(data[0])%len(geos)]
		units := geo.RouteUnits()
		workers := int(data[1])%(units+2) + 1 // deliberately past the cap sometimes
		rnd := prng.New(uint64(data[2]) + 1)

		body := data[3:]
		n := len(body) / 2
		if n > 512 {
			n = 512
		}
		reqs := make([]trace.Request, n)
		for i := 0; i < n; i++ {
			addr := uint64(body[2*i])<<8 | uint64(body[2*i+1])
			var ws [memline.LineWords]uint64
			for w := range ws {
				ws[w] = rnd.Uint64()
			}
			reqs[i] = trace.Request{Addr: addr, New: memline.FromWords(ws)}
		}

		opts := DefaultOptions() // Verify on
		opts.Geometry = geo
		opts.Workers = workers
		schemes := schemesForTest(t, "Baseline", "WLCRC-16", "VCC-4")
		e := NewEngine(opts, schemes...)

		// Routing agreement with the serial reference formulas.
		k := geo.SubShardsPerBank()
		for i := range reqs {
			addr := reqs[i].Addr
			u := e.routeOf(addr)
			if u != geo.RouteOf(addr) {
				t.Fatalf("engine routes %#x to unit %d, geometry says %d", addr, u, geo.RouteOf(addr))
			}
			if u < 0 || u >= units {
				t.Fatalf("unit %d out of range [0,%d)", u, units)
			}
			if bank := u / k; bank != geo.BankOf(addr) {
				t.Fatalf("unit %d of %#x implies bank %d, BankOf says %d", u, addr, bank, geo.BankOf(addr))
			}
			if sub := u % k; sub != geo.SubShardOf(addr) {
				t.Fatalf("unit %d of %#x implies sub-shard %d, SubShardOf says %d", u, addr, sub, geo.SubShardOf(addr))
			}
		}

		if err := e.Run(&trace.SliceSource{Reqs: reqs}, 0); err != nil {
			t.Fatalf("parallel run (workers=%d): %v", workers, err)
		}
		for _, m := range e.Metrics() {
			if m.Writes != n {
				t.Fatalf("%s: %d writes merged, want %d (dropped or duplicated requests)",
					m.Scheme, m.Writes, n)
			}
		}

		// Residency: each address's line lives in exactly its routed
		// shard (checked for every scheme's shard array).
		want := map[uint64]bool{}
		for i := range reqs {
			want[reqs[i].Addr] = true
		}
		for si := range schemes {
			seen := map[uint64]bool{}
			for u := 0; u < units; u++ {
				sh := e.shards[si*units+u]
				var bad error
				sh.eachResident(func(addr uint64) {
					if e.routeOf(addr) != u {
						bad = fmt.Errorf("scheme %d: addr %#x resident in unit %d, routes to %d",
							si, addr, u, e.routeOf(addr))
					}
					if seen[addr] {
						bad = fmt.Errorf("scheme %d: addr %#x resident in two shards", si, addr)
					}
					seen[addr] = true
				})
				if bad != nil {
					t.Fatal(bad)
				}
			}
			if !reflect.DeepEqual(want, seen) {
				t.Fatalf("scheme %d: resident address set has %d entries, trace wrote %d",
					si, len(seen), len(want))
			}
		}

		// Order within each sub-shard: bit-identical to the serial run.
		opts.Workers = 1
		ref := NewEngine(opts, schemesForTest(t, "Baseline", "WLCRC-16", "VCC-4")...)
		if err := ref.Run(&trace.SliceSource{Reqs: reqs}, 0); err != nil {
			t.Fatalf("serial run: %v", err)
		}
		if wantM, gotM := ref.Metrics(), e.Metrics(); !reflect.DeepEqual(wantM, gotM) {
			t.Fatalf("workers=%d metrics differ from serial reference", workers)
		}
	})
}
