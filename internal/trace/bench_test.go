package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// benchRecords is the per-pass record count for BenchmarkIngest. Every
// sub-benchmark decodes exactly this many records per iteration, so the
// ns/op of the three paths are directly comparable and their ratio is
// the per-record decode-cost ratio cmd/benchguard -ingest gates.
const benchRecords = 4096

// BenchmarkIngest measures pure trace-decode throughput through the
// three trace-read paths:
//
//	reader  per-record Reader.Read — the pre-PR7 hot loop
//	batch   Reader.ReadBatch in 512-record slices
//	mapped  MappedSource.NextBatch decoding zero-copy off the mapping
//
// reader and batch run over the same in-memory image (so the bufio
// layer's underlying reads are free in all cases and the delta is pure
// per-record overhead); mapped decodes a page-cached temp file. The
// committed ingest_pr7 series in BENCH_encode.json records the ratio.
func BenchmarkIngest(b *testing.B) {
	image, _ := testTraceImage(b, benchRecords, 99)
	path := filepath.Join(b.TempDir(), "bench.wlct")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		b.Fatal(err)
	}
	payload := int64(len(image) - HeaderSize)

	b.Run("reader", func(b *testing.B) {
		src := bytes.NewReader(image)
		b.SetBytes(payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Reset(image)
			rd, err := NewReader(src)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				if _, err := rd.Read(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				n++
			}
			if n != benchRecords {
				b.Fatalf("decoded %d records, want %d", n, benchRecords)
			}
		}
		reportRecordRate(b)
	})

	b.Run("batch", func(b *testing.B) {
		src := bytes.NewReader(image)
		var buf [512]Request
		b.SetBytes(payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Reset(image)
			rd, err := NewReader(src)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				got, err := rd.ReadBatch(buf[:])
				if err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				n += got
			}
			if n != benchRecords {
				b.Fatalf("decoded %d records, want %d", n, benchRecords)
			}
		}
		reportRecordRate(b)
	})

	b.Run("mapped", func(b *testing.B) {
		m, err := OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		var buf [512]Request
		// Warm pass: fault the mapping in before the clock starts.
		for m.NextBatch(buf[:]) != 0 {
		}
		if m.Err() != nil {
			b.Fatal(m.Err())
		}
		b.SetBytes(payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Rewind()
			n := 0
			for {
				got := m.NextBatch(buf[:])
				if got == 0 {
					break
				}
				n += got
			}
			if n != benchRecords {
				b.Fatalf("decoded %d records, want %d", n, benchRecords)
			}
		}
		if m.Err() != nil {
			b.Fatal(m.Err())
		}
		reportRecordRate(b)
	})
}

func reportRecordRate(b *testing.B) {
	b.ReportMetric(float64(benchRecords)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
