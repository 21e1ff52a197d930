package wire

// Streaming access to wire archives: Writer frames results or log
// entries onto any io.Writer through one pooled encode buffer; Scanner
// and LogScanner stream frames back, decoding each into owned storage
// that every Scan overwrites (the zero-allocation replay path).

import (
	"bufio"
	"fmt"
	"io"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/cdn"
	lmioutil "github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// Writer frames encoded payloads onto w. The encode buffer is owned by
// the Writer and reused across writes, so steady-state writing
// allocates nothing per frame.
type Writer struct {
	bw          *bufio.Writer
	typ         byte
	buf         []byte // reused payload encode buffer
	pre         []byte // reused length-prefix buffer
	wroteHeader bool
}

// NewWriter returns a Writer producing a stream of the given type
// (StreamResults or StreamCDNLog). The stream header is emitted before
// the first frame — or by Flush, so an empty archive is still a valid
// stream.
func NewWriter(w io.Writer, streamType byte) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64*1024), typ: streamType}
}

// writeFrame emits the header (once) and one length-prefixed frame.
func (w *Writer) writeFrame(payload []byte) error {
	if err := w.header(); err != nil {
		return err
	}
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	w.pre = appendUvarint(w.pre[:0], uint64(len(payload)))
	if _, err := w.bw.Write(w.pre); err != nil {
		return err
	}
	_, err := w.bw.Write(payload)
	return err
}

func (w *Writer) header() error {
	if w.wroteHeader {
		return nil
	}
	w.wroteHeader = true
	w.pre = appendHeader(w.pre[:0], w.typ)
	_, err := w.bw.Write(w.pre)
	return err
}

// WriteResult appends one attributed result frame. The Writer must
// carry StreamResults.
func (w *Writer) WriteResult(asn bgp.ASN, r *traceroute.Result) error {
	if w.typ != StreamResults {
		return ErrStreamType
	}
	w.buf = AppendResult(w.buf[:0], asn, r)
	return w.writeFrame(w.buf)
}

// WriteLog appends one access-log frame. The Writer must carry
// StreamCDNLog.
func (w *Writer) WriteLog(e *cdn.LogEntry) error {
	if w.typ != StreamCDNLog {
		return ErrStreamType
	}
	w.buf = AppendLog(w.buf[:0], e)
	return w.writeFrame(w.buf)
}

// Flush writes the header if nothing was written yet and flushes
// buffered output. Call it before closing the underlying writer.
func (w *Writer) Flush() error {
	if err := w.header(); err != nil {
		return err
	}
	return w.bw.Flush()
}

// frameReader is the shared streaming state of Scanner and LogScanner:
// buffered input, the reused frame payload buffer, and frame/offset
// accounting for corruption reports.
type frameReader struct {
	br       *bufio.Reader
	buf      []byte
	err      error
	off      int64 // stream offset of the next unread byte
	frameOff int64 // stream offset of the current frame's length prefix
	// frame is the 0-based index of the current frame: the one being
	// read, or the one whose payload next returned last, until the
	// following call moves on.
	frame   int
	started bool
}

func newFrameReader(r io.Reader) frameReader {
	rd, err := lmioutil.MaybeGzip(r)
	if err != nil {
		// A broken gzip envelope means no wire stream is readable at
		// all; surface it as the typed not-a-stream error with the
		// cause in the message.
		return frameReader{err: fmt.Errorf("wire: %w: %v", ErrBadMagic, err)}
	}
	return frameReader{br: bufio.NewReaderSize(rd, 64*1024)}
}

// corruptHere wraps err with the current frame's location.
func (f *frameReader) corruptHere(err error) error {
	return corrupt(f.frame, f.frameOff, err)
}

// readErr converts an underlying read failure mid-stream into the typed
// corruption contract: the readable input ended inside a frame, whether
// by plain truncation or a failing transport (a corrupt gzip layer, an
// I/O error). Non-EOF causes are preserved in the message.
func (f *frameReader) readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return f.corruptHere(ErrShortFrame)
	}
	return f.corruptHere(fmt.Errorf("%w: %v", ErrShortFrame, err)) //lmvet:ignore allocguard terminal error path: the stream is over
}

// header consumes and validates the stream header on the first frame
// read.
func (f *frameReader) header(want byte) error {
	var hdr [HeaderLen]byte
	n, err := io.ReadFull(f.br, hdr[:])
	f.off += int64(n)
	if err != nil {
		if n >= 4 && IsMagic(hdr[:n]) {
			return f.readErr(err)
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrBadMagic
		}
		return fmt.Errorf("wire: %w: %v", ErrBadMagic, err) //lmvet:ignore allocguard terminal error path: the stream is over
	}
	typ, err := checkHeader(hdr[:])
	if err != nil {
		return err
	}
	if typ != want {
		return ErrStreamType
	}
	return nil
}

// next returns the next frame's payload, valid until the following
// call. io.EOF marks the clean end of the stream; every other error is
// terminal and already wrapped.
func (f *frameReader) next(want byte) ([]byte, error) {
	if !f.started {
		f.started = true
		if err := f.header(want); err != nil {
			return nil, err
		}
	} else {
		f.frame++
	}
	f.frameOff = f.off
	ln, err := f.readUvarint()
	if err != nil {
		return nil, err
	}
	if ln > MaxFrame {
		return nil, f.corruptHere(ErrFrameTooLarge)
	}
	return f.readPayload(ln)
}

// frameAllocStep bounds how far readPayload grows the frame buffer
// ahead of bytes actually read: a corrupt length prefix declaring a
// near-MaxFrame frame on a truncated stream fails after at most one
// step of over-allocation, not after committing MaxFrame upfront.
const frameAllocStep = 64 * 1024

// readPayload returns the next ln payload bytes in the reused frame
// buffer. The declared length is untrusted input, so the buffer only
// grows (doubling, floor one step) once the bytes backing the previous
// capacity have actually arrived; steady state still reaches the
// stream's largest frame once and then reads allocation-free.
func (f *frameReader) readPayload(ln uint64) ([]byte, error) {
	var got uint64
	for got < ln {
		have := uint64(cap(f.buf))
		if have > ln {
			have = ln
		}
		if got == have { // capacity exhausted by real bytes: grow one step
			next := have + frameAllocStep
			if d := have * 2; d > next {
				next = d
			}
			if next > ln {
				next = ln
			}
			nb := make([]byte, next) //lmvet:ignore allocguard frame buffer grows to the stream's largest frame, then every read reuses it
			copy(nb, f.buf[:got])
			f.buf = nb
			have = next
		}
		n, err := io.ReadFull(f.br, f.buf[got:have])
		f.off += int64(n)
		got += uint64(n)
		if err != nil {
			return nil, f.readErr(err)
		}
	}
	return f.buf[:ln], nil
}

// readUvarint reads one canonical length prefix byte-by-byte. io.EOF at
// the first byte is the clean end of the stream.
func (f *frameReader) readUvarint() (uint64, error) {
	var v uint64
	for i := 0; ; i++ {
		c, err := f.br.ReadByte()
		if err != nil {
			if i == 0 && err == io.EOF {
				return 0, io.EOF
			}
			return 0, f.readErr(err)
		}
		f.off++
		if i == maxVarintLen-1 && c > 1 {
			return 0, f.corruptHere(ErrOverlongVarint)
		}
		if c < 0x80 {
			if c == 0 && i > 0 {
				return 0, f.corruptHere(ErrOverlongVarint)
			}
			return v | uint64(c)<<(7*i), nil
		}
		if i == maxVarintLen-1 {
			return 0, f.corruptHere(ErrOverlongVarint)
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
}

// Scanner streams attributed results from a wire archive, transparently
// decompressing gzip. It owns one Result that every Scan decodes into.
type Scanner struct {
	f   frameReader
	res traceroute.Result
	asn bgp.ASN
}

// NewScanner wraps r, which must carry a StreamResults wire stream
// (optionally gzip-compressed). The header is validated on the first
// Scan.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{f: newFrameReader(r)}
}

// Scan advances to the next result. It returns false at end of input or
// on the first error; check Err. Each Scan overwrites the Result
// returned by Result.
//
//lmvet:hotpath
func (s *Scanner) Scan() bool {
	if s.f.err != nil {
		return false
	}
	payload, err := s.f.next(StreamResults)
	if err == io.EOF {
		return false
	}
	if err != nil {
		s.f.err = err
		return false
	}
	asn, err := DecodeResultInto(&s.res, payload)
	if err != nil {
		s.f.err = s.f.corruptHere(err)
		return false
	}
	s.asn = asn
	return true
}

// Result returns the result decoded by the last successful Scan. The
// pointer and everything it references are valid until the next Scan
// call, which reuses the same storage; callers that retain a result
// across Scans must Clone it (or CopyFrom into their own Result).
func (s *Scanner) Result() *traceroute.Result { return &s.res }

// ASN returns the origin AS attributed to the last scanned result.
func (s *Scanner) ASN() bgp.ASN { return s.asn }

// Err returns the first error encountered, or nil at clean end of
// input.
func (s *Scanner) Err() error { return s.f.err }

// LogScanner streams CDN access-log entries from a wire archive.
type LogScanner struct {
	f     frameReader
	entry cdn.LogEntry
}

// NewLogScanner wraps r, which must carry a StreamCDNLog wire stream
// (optionally gzip-compressed).
func NewLogScanner(r io.Reader) *LogScanner {
	return &LogScanner{f: newFrameReader(r)}
}

// Scan advances to the next entry. It returns false at end of input or
// on the first error; check Err.
//
//lmvet:hotpath
func (s *LogScanner) Scan() bool {
	if s.f.err != nil {
		return false
	}
	payload, err := s.f.next(StreamCDNLog)
	if err == io.EOF {
		return false
	}
	if err != nil {
		s.f.err = err
		return false
	}
	if err := DecodeLogInto(&s.entry, payload); err != nil {
		s.f.err = s.f.corruptHere(err)
		return false
	}
	return true
}

// Entry returns the entry decoded by the last successful Scan.
func (s *LogScanner) Entry() cdn.LogEntry { return s.entry }

// Err returns the first error encountered, or nil at clean end of
// input.
func (s *LogScanner) Err() error { return s.f.err }
