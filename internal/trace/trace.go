// Package trace defines the write-trace format the simulator consumes,
// mirroring the paper's methodology (§VII.A): traces carry, for every
// memory write transaction, the line address, the value to be stored and
// the value being overwritten (so differential write can be evaluated
// without replaying the whole history).
//
// The on-disk format is a fixed header followed by fixed-size records:
//
//	magic   "WLCT"            4 bytes
//	version uint32 LE         4 bytes
//	count   uint64 LE         8 bytes (0 if unknown/streamed)
//	record: addr uint64 LE, old [64]byte, new [64]byte
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"wlcrc/internal/memline"
)

// Magic identifies trace files.
const Magic = "WLCT"

// Version is the current format version.
const Version = 1

// HeaderSize is the byte length of the fixed file header (magic,
// version, count), and RecordSize of one fixed-width record (addr +
// old line + new line). Every record starts at
// HeaderSize + i*RecordSize, which is what lets MappedSource decode by
// sub-slicing a mapping and Reader.ReadBatch decode many records per
// read.
const (
	HeaderSize = 16
	RecordSize = 8 + 2*memline.LineBytes
)

// Request is one memory write transaction.
type Request struct {
	Addr uint64       // line address (line index, not byte address)
	Old  memline.Line // content being overwritten
	New  memline.Line // content to store
}

// countOffset is the byte offset of the header's count field (after the
// 4-byte magic and the 4-byte version).
const countOffset = 8

// Writer streams requests to an io.Writer.
type Writer struct {
	under io.Writer
	w     *bufio.Writer
	count uint64
}

// NewWriter writes a header (with unknown count) and returns a Writer.
// Call Close when done: for seekable destinations it back-patches the
// header with the real record count.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], Version)
	binary.LittleEndian.PutUint64(hdr[4:12], 0)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{under: w, w: bw}, nil
}

// Write appends one request.
func (w *Writer) Write(r Request) error {
	var addr [8]byte
	binary.LittleEndian.PutUint64(addr[:], r.Addr)
	if _, err := w.w.Write(addr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(r.Old[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(r.New[:]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of requests written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Close flushes buffered records and, when the underlying writer is an
// io.WriteSeeker (an *os.File, typically), back-patches the header's
// count field with the number of records written, leaving the write
// position at the end of the stream. Unseekable destinations (pipes,
// network streams, plain buffers) keep count 0, which readers treat as
// "unknown/streamed". Close does not close the underlying writer —
// the caller owns it — and the Writer must not be used afterwards.
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	ws, ok := w.under.(io.WriteSeeker)
	if !ok {
		return nil
	}
	if _, err := ws.Seek(countOffset, io.SeekStart); err != nil {
		return fmt.Errorf("trace: seeking to header count: %w", err)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], w.count)
	if _, err := ws.Write(buf[:]); err != nil {
		return fmt.Errorf("trace: back-patching header count: %w", err)
	}
	if _, err := ws.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("trace: restoring write position: %w", err)
	}
	return nil
}

// Reader streams requests from an io.Reader.
type Reader struct {
	r     *bufio.Reader
	count uint64 // from header; 0 = unknown
	read  uint64
	// batchBuf is ReadBatch's reusable raw-record staging buffer; it
	// grows to the largest batch requested and is then reused, so a
	// steady ReadBatch loop performs no per-call allocations.
	batchBuf []byte
}

// ErrBadMagic is returned when the stream is not a trace file.
var ErrBadMagic = errors.New("trace: bad magic")

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:4]) != Magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	return &Reader{r: br, count: binary.LittleEndian.Uint64(hdr[8:16])}, nil
}

// Count returns the record count declared in the header; 0 means the
// producer streamed to an unseekable destination (tracegen -out -, a
// pipe) and the count is unknown — NOT that the trace is empty. A zero
// count must never be trusted as a length: consumers that want to
// preallocate should treat 0 as "size unknown" and fall back to
// growing as they read (Record does exactly that). Non-zero counts are
// back-patched by Writer.Close and are authoritative.
func (r *Reader) Count() uint64 { return r.count }

// decodeRecord decodes one fixed-width record from rec into req.
// rec must hold at least RecordSize bytes.
func decodeRecord(rec []byte, req *Request) {
	req.Addr = binary.LittleEndian.Uint64(rec[0:8])
	copy(req.Old[:], rec[8:8+memline.LineBytes])
	copy(req.New[:], rec[8+memline.LineBytes:RecordSize])
}

// Read returns the next request, or io.EOF at end of stream.
func (r *Reader) Read() (Request, error) {
	var rec [RecordSize]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.EOF {
			return Request{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Request{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Request{}, err
	}
	var req Request
	decodeRecord(rec[:], &req)
	r.read++
	return req, nil
}

// ReadBatch decodes up to len(dst) records in one bulk read and returns
// how many landed in dst. One io.ReadFull covers the whole batch —
// large batches bypass the bufio layer and go to the underlying reader
// directly — so the per-record syscall and bounds-check overhead of the
// record-at-a-time Read loop is amortized over the batch.
//
// The error contract follows io conventions: a short final batch
// returns n > 0 with a nil error, the next call returns (0, io.EOF);
// a stream ending mid-record returns the full records decoded before
// the tear together with the same truncated-record error Read reports.
// Read and ReadBatch may be mixed freely on one Reader.
func (r *Reader) ReadBatch(dst []Request) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	need := len(dst) * RecordSize
	if cap(r.batchBuf) < need {
		r.batchBuf = make([]byte, need)
	}
	buf := r.batchBuf[:need]
	n, err := io.ReadFull(r.r, buf)
	nrec := n / RecordSize
	for i := 0; i < nrec; i++ {
		decodeRecord(buf[i*RecordSize:], &dst[i])
	}
	r.read += uint64(nrec)
	switch {
	case err == nil:
		return nrec, nil
	case err == io.EOF:
		return 0, io.EOF
	case errors.Is(err, io.ErrUnexpectedEOF):
		if n%RecordSize != 0 {
			return nrec, fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)
		}
		if nrec == 0 {
			return 0, io.EOF
		}
		return nrec, nil
	default:
		return nrec, err
	}
}

// Source is anything that yields a stream of write requests: a trace
// file reader or a synthetic workload generator.
type Source interface {
	// Next returns the next request; ok=false at end of stream.
	Next() (Request, bool)
}

// BatchSource is the bulk form of Source: NextBatch fills a prefix of
// dst and returns how many requests landed there. It returns 0 only at
// the end of the stream; a short fill (0 < n < len(dst)) is legal
// mid-stream, so consumers must keep pulling until 0. Implementations
// must yield the exact same request sequence through NextBatch as
// through Next, and the two may be mixed on one source.
//
// Migration note (Source vs BatchSource): Source stays the universal
// interface — everything that consumes a stream keeps accepting it, and
// Batched upgrades any legacy Source for free. New sources should
// implement both (NextBatch as the native loop, Next as the one-element
// special case): batch consumers like Record detect BatchSource
// dynamically, and wlcrc.Workload.NextBatch goes through the adapter,
// which preserves results exactly but keeps the per-request interface
// call on the hot path for legacy sources.
type BatchSource interface {
	Source
	NextBatch(dst []Request) int
}

// Batched returns src as a BatchSource: sources that already implement
// the bulk interface are returned unchanged, anything else is wrapped
// in an adapter whose NextBatch is a plain Next loop. The adapter adds
// no buffering and never reads ahead of what it returns, so wrapping a
// partially-consumed source is safe.
func Batched(src Source) BatchSource {
	if bs, ok := src.(BatchSource); ok {
		return bs
	}
	return &sourceBatcher{Source: src}
}

// sourceBatcher adapts a legacy Source to BatchSource.
type sourceBatcher struct {
	Source
}

// NextBatch implements BatchSource by looping Next.
func (s *sourceBatcher) NextBatch(dst []Request) int {
	for i := range dst {
		req, ok := s.Next()
		if !ok {
			return i
		}
		dst[i] = req
	}
	return len(dst)
}

// ReaderSource adapts a Reader to the Source and BatchSource
// interfaces, stopping at EOF or on the first error (exposed via Err).
type ReaderSource struct {
	R   *Reader
	err error
}

// Next implements Source.
func (s *ReaderSource) Next() (Request, bool) {
	req, err := s.R.Read()
	if err != nil {
		if err != io.EOF {
			s.err = err
		}
		return Request{}, false
	}
	return req, true
}

// NextBatch implements BatchSource via Reader.ReadBatch, decoding many
// records per underlying read.
func (s *ReaderSource) NextBatch(dst []Request) int {
	if s.err != nil {
		return 0
	}
	n, err := s.R.ReadBatch(dst)
	if err != nil && err != io.EOF {
		s.err = err
	}
	return n
}

// Count reports the header's declared record count; 0 means unknown
// (streamed), never "empty" — see Reader.Count.
func (s *ReaderSource) Count() uint64 { return s.R.Count() }

// Err reports a non-EOF read error, if any occurred.
func (s *ReaderSource) Err() error { return s.err }

// SliceSource replays an in-memory request slice. Unlike a Reader it can
// be rewound, which makes it the natural fixture for determinism tests
// and serial-vs-parallel benchmarks that must replay the exact same
// stream several times.
type SliceSource struct {
	Reqs []Request
	next int
}

// Next implements Source.
func (s *SliceSource) Next() (Request, bool) {
	if s.next >= len(s.Reqs) {
		return Request{}, false
	}
	r := s.Reqs[s.next]
	s.next++
	return r, true
}

// NextBatch implements BatchSource as a single bulk copy.
func (s *SliceSource) NextBatch(dst []Request) int {
	n := copy(dst, s.Reqs[s.next:])
	s.next += n
	return n
}

// Rewind restarts the stream from the first request.
func (s *SliceSource) Rewind() { s.next = 0 }

// recordGrain is Record's per-pull batch size on bulk sources: big
// enough to amortize the NextBatch call, small enough that the final
// short pull wastes little zeroed tail.
const recordGrain = 512

// Record drains up to n requests from src into a new SliceSource
// (n <= 0 drains src completely — do not use that with an infinite
// synthetic generator). Sources that declare a real record count — a
// ReaderSource over a back-patched trace file, a MappedSource — are
// preallocated in one shot; a zero count means unknown, not empty (see
// Reader.Count), so those sources grow as they drain. Bulk sources are
// drained through NextBatch.
func Record(src Source, n int) *SliceSource {
	var reqs []Request
	if c, ok := src.(interface{ Count() uint64 }); ok {
		if cnt := c.Count(); cnt > 0 {
			if n > 0 && uint64(n) < cnt {
				cnt = uint64(n)
			}
			reqs = make([]Request, 0, cnt)
		}
	}
	if bs, ok := src.(BatchSource); ok {
		if reqs == nil {
			reqs = make([]Request, 0, recordGrain)
		}
		var scratch []Request
		for n <= 0 || len(reqs) < n {
			grain := recordGrain
			if n > 0 && n-len(reqs) < grain {
				grain = n - len(reqs)
			}
			off := len(reqs)
			room := cap(reqs) - off
			if room == 0 {
				// Capacity exactly spent — probe through a scratch buffer
				// before growing, so a source whose declared count was
				// exact (the preallocated fast path) ends with no
				// pointless doubling; only a source that outgrows its
				// count pays the append copy.
				if scratch == nil {
					scratch = make([]Request, recordGrain)
				}
				got := bs.NextBatch(scratch[:grain])
				if got == 0 {
					break
				}
				reqs = append(reqs, scratch[:got]...)
				continue
			}
			if grain > room {
				grain = room
			}
			got := bs.NextBatch(reqs[off : off+grain])
			reqs = reqs[:off+got]
			if got == 0 {
				break
			}
		}
		return &SliceSource{Reqs: reqs}
	}
	for n <= 0 || len(reqs) < n {
		req, ok := src.Next()
		if !ok {
			break
		}
		reqs = append(reqs, req)
	}
	return &SliceSource{Reqs: reqs}
}
