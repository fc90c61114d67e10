package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// MappedSource replays a trace file straight out of a read-only memory
// mapping of its bytes: no bufio layer, no per-record syscalls — every
// record is decoded by sub-slicing the mapping at
// HeaderSize + i*RecordSize. On platforms without mmap support (see
// mmap_fallback.go) the file is loaded with one bulk read instead; the
// decode path and every semantic are identical, only residency differs.
//
// Like SliceSource it is rewindable, which makes it the natural fixture
// for replaying one on-disk trace several times (determinism matrices,
// per-scheme sweeps, warm-up-then-measure benchmarks) without re-paying
// file I/O. Unlike SliceSource the requests are materialized lazily —
// the mapping holds raw records, and a page is only faulted in when a
// request on it is decoded — so footprint is bounded by the page cache,
// not by len(trace) copies of Request.
//
// A MappedSource is not safe for concurrent use; each goroutine of a
// parallel consumer must pull from it under the consumer's own
// serialization.
type MappedSource struct {
	data  []byte // whole file, header included
	recs  []byte // record region: data[HeaderSize:], truncation trimmed
	count uint64 // header count (0 = unknown/streamed)
	n     int    // full records in the mapping
	next  int
	err   error        // non-nil if the file ends mid-record
	unmap func() error // releases the mapping; nil for the read fallback
}

// OpenMapped maps the trace file at path and validates its header. The
// file descriptor is closed before returning — the mapping (or the
// fallback's in-memory copy) survives it. Callers should Close the
// source when done to release the mapping promptly; a forgotten Close
// leaks address space until the MappedSource is garbage-collected, not
// file descriptors.
func OpenMapped(path string) (*MappedSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < HeaderSize {
		return nil, fmt.Errorf("trace: %s: %d bytes is smaller than the %d-byte header",
			path, st.Size(), HeaderSize)
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("trace: mapping %s: %w", path, err)
	}
	m, err := newMappedSource(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	m.unmap = unmap
	return m, nil
}

// NewMappedBytes builds a MappedSource over an in-memory trace image
// (header included) — the zero-copy decode path without a file, used by
// tests and by consumers that already hold the bytes.
func NewMappedBytes(data []byte) (*MappedSource, error) {
	return newMappedSource(data)
}

// newMappedSource validates the header and slices up the record region.
func newMappedSource(data []byte) (*MappedSource, error) {
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("trace: %d bytes is smaller than the %d-byte header",
			len(data), HeaderSize)
	}
	if string(data[:4]) != Magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	body := data[HeaderSize:]
	m := &MappedSource{
		data:  data,
		count: binary.LittleEndian.Uint64(data[8:16]),
		n:     len(body) / RecordSize,
	}
	m.recs = body[:m.n*RecordSize]
	if len(body)%RecordSize != 0 {
		// Mirror Reader's behavior exactly: the full records before the
		// tear are served, then the stream reports the same truncation
		// error Read would (via Err, like ReaderSource).
		m.err = fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)
	}
	return m, nil
}

// Count reports the header's declared record count; 0 means the trace
// was streamed and the count is unknown — use Records for the number of
// records actually present in the mapping. When both are known they can
// disagree only for a file truncated or appended after its header was
// back-patched; Records is what a replay will deliver.
func (m *MappedSource) Count() uint64 { return m.count }

// Records returns the number of complete records in the mapping — the
// exact stream length, independent of the header count.
func (m *MappedSource) Records() int { return m.n }

// Mapped reports whether the source is backed by a real memory mapping
// (true) or by the portable bulk-read fallback (false).
func (m *MappedSource) Mapped() bool { return m.unmap != nil }

// Next implements Source, decoding one record off the mapping.
func (m *MappedSource) Next() (Request, bool) {
	if m.next >= m.n {
		return Request{}, false
	}
	var req Request
	decodeRecord(m.recs[m.next*RecordSize:], &req)
	m.next++
	return req, true
}

// NextBatch implements BatchSource: each destination request is decoded
// from its record's sub-slice of the mapping, with no intermediate
// buffer between the page cache and dst.
func (m *MappedSource) NextBatch(dst []Request) int {
	n := m.n - m.next
	if n <= 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	base := m.recs[m.next*RecordSize:]
	for i := 0; i < n; i++ {
		decodeRecord(base[i*RecordSize:], &dst[i])
	}
	m.next += n
	return n
}

// Rewind restarts the stream from the first record.
func (m *MappedSource) Rewind() { m.next = 0 }

// Err reports whether the file ends mid-record — the mapped equivalent
// of the truncated-record error Reader.Read returns. The full records
// before the tear are still served; check Err after draining, exactly
// like ReaderSource.Err.
func (m *MappedSource) Err() error { return m.err }

// Close releases the mapping. The source must not be used afterwards.
// Closing a fallback (non-mmap) source is a no-op.
func (m *MappedSource) Close() error {
	if m.unmap == nil {
		return nil
	}
	unmap := m.unmap
	m.unmap = nil
	m.data, m.recs, m.n, m.next = nil, nil, 0, 0
	return unmap()
}
