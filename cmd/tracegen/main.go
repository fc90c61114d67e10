// Command tracegen generates write-trace files from the synthetic
// benchmark workloads (optionally through the Table II L2 cache model,
// which turns a store stream into the dirty write-back stream the
// paper's Simics methodology captured) and inspects existing traces.
//
// With -out - the trace streams to stdout (summaries go to stderr), so
// generated workloads pipe straight into pcmsim without a temp file:
//
//	tracegen -workload mcf -writes 100000 -out - | pcmsim -trace /dev/stdin
//
// Files written with -out <path> carry the real record count in the
// header (back-patched on close); streamed output keeps the header's
// count-unknown convention, which every reader accepts.
//
// With -encrypt the emitted trace is the counter-mode encrypted
// (whitened) form of the stream — the ciphertext an encrypted DIMM
// stores, with per-line write counters advanced deterministically —
// so any recorded workload can be replayed as encrypted traffic. The
// transform is keyed (-key) and is its own inverse. With -from the
// requests come from an existing trace file instead of a synthetic
// workload (reading it to the end; the workload flags are ignored), so
// -from enc.wlct -encrypt with the same key decrypts an encrypted
// trace back to plaintext. Input traces (-from, -info) are
// memory-mapped and decoded zero-copy when the platform allows it;
// -info also reports the file's pure decode throughput off the mapping.
//
// Examples:
//
//	tracegen -workload mcf -writes 100000 -out mcf.wlct
//	tracegen -workload lesl -writes 50000 -through-cache -out lesl.wlct
//	tracegen -workload gcc -writes 50000 -encrypt -out gcc-enc.wlct
//	tracegen -from gcc-enc.wlct -encrypt -out gcc-plain.wlct   # decrypt
//	tracegen -info mcf.wlct
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"time"

	"wlcrc/internal/cache"
	"wlcrc/internal/memline"
	"wlcrc/internal/stats"
	"wlcrc/internal/trace"
	"wlcrc/internal/vcc"
	"wlcrc/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	var (
		wlName   = flag.String("workload", "gcc", "workload profile name or 'random'")
		writes   = flag.Int("writes", 10000, "number of write requests to emit")
		out      = flag.String("out", "", "output trace file, or '-' for stdout (required unless -info)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		footpr   = flag.Int("footprint", 0, "working-set lines (0 = profile default)")
		useCache = flag.Bool("through-cache", false, "filter stores through the Table II L2; the trace holds its dirty write-backs")
		encrypt  = flag.Bool("encrypt", false, "emit the counter-mode encrypted (whitened) form of the stream")
		key      = flag.Uint64("key", 0, "encryption key for -encrypt (0 = default key)")
		from     = flag.String("from", "", "read requests from an existing trace file instead of a synthetic workload (read to the end; workload flags ignored)")
		info     = flag.String("info", "", "print a summary of an existing trace file and exit")
	)
	flag.Parse()

	if *info != "" {
		if err := describe(*info); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *out == "" {
		log.Fatal("-out is required (or use -info)")
	}

	// The request source: a synthetic workload generator, or with -from
	// an existing trace (drained to its end, so -writes is ignored too).
	var src trace.Source
	limit := *writes
	if *from != "" {
		// os.Create(*out) truncates before the first record is read, so
		// an in-place transform would silently destroy the input.
		if *out != "-" && samePath(*from, *out) {
			log.Fatalf("-from and -out name the same file %q; write to a new file instead", *out)
		}
		// Prefer the memory-mapped source (zero-copy decode); fall back
		// to the buffered reader when mapping is unavailable.
		if m, err := trace.OpenMapped(*from); err == nil {
			defer m.Close()
			src = m
		} else {
			f, err := os.Open(*from)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			rd, err := trace.NewReader(f)
			if err != nil {
				log.Fatal(err)
			}
			src = &trace.ReaderSource{R: rd}
		}
		limit = -1
	} else {
		var prof workload.Profile
		if *wlName == "random" {
			prof = workload.RandomProfile()
		} else {
			var ok bool
			prof, ok = workload.ProfileByName(*wlName)
			if !ok {
				log.Fatalf("unknown workload %q", *wlName)
			}
		}
		src = workload.NewGenerator(prof, *footpr, *seed)
	}

	// With -out - the records stream to stdout and human-readable
	// summaries move to stderr. Stdout is wrapped so the writer does not
	// try to back-patch the header count — stdout is usually a pipe, and
	// even when it is a file the stream convention (count 0 = unknown)
	// keeps piped and redirected output identical.
	var (
		dst     io.Writer
		closef  func() error
		summary io.Writer = os.Stdout
	)
	if *out == "-" {
		dst = struct{ io.Writer }{os.Stdout}
		summary = os.Stderr
		closef = func() error { return nil }
	} else {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		dst = f
		closef = f.Close
	}
	w, err := trace.NewWriter(dst)
	if err != nil {
		log.Fatal(err)
	}

	// With -encrypt every record is whitened on its way into the writer,
	// after the cache filter (the DIMM sees the write-back stream).
	var enc *vcc.StreamEncryptor
	if *encrypt {
		enc = vcc.NewStreamEncryptor(*key)
	}
	emit := func(r trace.Request) error {
		if enc != nil {
			enc.Apply(&r)
		}
		return w.Write(r)
	}

	if *useCache {
		// Stores go through the L2; the trace records its dirty
		// write-backs, each carrying the previous memory content.
		mem := cache.NewMemory()
		var sinkErr error
		l2 := cache.New(cache.TableII(), mem, func(r trace.Request) {
			if sinkErr == nil {
				sinkErr = emit(r)
			}
		})
		stores := 0
		for ; limit < 0 || stores < limit; stores++ {
			req, ok := src.Next()
			if !ok {
				break
			}
			l2.Store(req.Addr, req.New)
			if sinkErr != nil {
				log.Fatal(sinkErr)
			}
		}
		l2.Flush()
		if sinkErr != nil {
			log.Fatal(sinkErr)
		}
		st := l2.Stats()
		fmt.Fprintf(summary, "L2: %.1f%% hit rate, %d write-backs from %d stores\n",
			100*st.HitRate(), st.WriteBacks, stores)
	} else {
		for i := 0; limit < 0 || i < limit; i++ {
			req, ok := src.Next()
			if !ok {
				break
			}
			if err := emit(req); err != nil {
				log.Fatal(err)
			}
		}
	}
	if rs, ok := src.(*trace.ReaderSource); ok && rs.Err() != nil {
		log.Fatal(rs.Err())
	}
	if m, ok := src.(*trace.MappedSource); ok && m.Err() != nil {
		log.Fatal(m.Err())
	}
	// Close back-patches the header record count on seekable outputs.
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	if err := closef(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(summary, "wrote %d requests to %s\n", w.Count(), *out)
}

// samePath reports whether two paths name the same file, falling back
// to a lexical comparison when either cannot be resolved (e.g. the
// output does not exist yet).
func samePath(a, b string) bool {
	ai, errA := os.Stat(a)
	bi, errB := os.Stat(b)
	if errA == nil && errB == nil {
		return os.SameFile(ai, bi)
	}
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	return errA == nil && errB == nil && aa == bb
}

func describe(path string) error {
	m, err := trace.OpenMapped(path)
	if err != nil {
		// Mapping failed (exotic filesystem, malformed header surfaces
		// below either way) — describe through the buffered reader.
		return describeReader(path)
	}
	defer m.Close()
	if c := m.Count(); c > 0 {
		fmt.Printf("header count: %d\n", c)
	} else {
		fmt.Println("header count: unknown (streamed)")
	}
	// Timed pure-decode pass: batch-decode every record off the mapping
	// with none of the analysis below, i.e. the per-record cost of
	// reading the trace alone.
	var buf [512]trace.Request
	start := time.Now()
	for m.NextBatch(buf[:]) != 0 {
	}
	elapsed := time.Since(start)
	backing := "mmap"
	if !m.Mapped() {
		backing = "bulk read"
	}
	fmt.Printf("decode: %d records in %v (%s, %s)\n", m.Records(),
		elapsed.Round(time.Microsecond), stats.Rate(uint64(m.Records()), elapsed), backing)
	m.Rewind()
	summarize(path, m)
	return m.Err()
}

// describeReader is the -info fallback when the file cannot be mapped.
func describeReader(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	if c := rd.Count(); c > 0 {
		fmt.Printf("header count: %d\n", c)
	} else {
		fmt.Println("header count: unknown (streamed)")
	}
	rs := &trace.ReaderSource{R: rd}
	summarize(path, rs)
	return rs.Err()
}

// summarize drains a source and prints the request-level summary shared
// by the mapped and reader -info paths.
func summarize(path string, src trace.Source) {
	var (
		n        int
		addrs    = map[uint64]bool{}
		diffSyms int
		hist     [memline.SymbolValues]int
	)
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		n++
		addrs[req.Addr] = true
		diffSyms += req.Old.CountDiffSymbols(&req.New)
		for v, c := range req.New.SymbolHistogram() {
			hist[v] += c
		}
	}
	fmt.Printf("%s: %d requests, %d distinct lines\n", path, n, len(addrs))
	if n > 0 {
		avg := float64(diffSyms) / float64(n)
		fmt.Printf("avg changed symbols per write: %.1f / %d (%.1f%%)\n",
			avg, memline.LineCells, 100*avg/float64(memline.LineCells))
		total := float64(n) * memline.LineCells
		fmt.Printf("written symbol mix: 00=%.1f%% 01=%.1f%% 10=%.1f%% 11=%.1f%%\n",
			100*float64(hist[0])/total, 100*float64(hist[1])/total,
			100*float64(hist[2])/total, 100*float64(hist[3])/total)
	}
}
