package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// MemorySink accumulates the encoded stream in memory — the sink behind
// the golden and differential tests (two backends' streams are compared
// with bytes.Equal) and em2soak's stream capture.
type MemorySink struct {
	buf []byte
}

// Write implements Sink.
func (m *MemorySink) Write(lines []byte) error {
	m.buf = append(m.buf, lines...)
	return nil
}

// Close implements Sink.
func (m *MemorySink) Close() error { return nil }

// Bytes returns the accumulated stream (no copy; callers must not
// mutate).
func (m *MemorySink) Bytes() []byte { return m.buf }

// Lines returns the accumulated stream split into lines, trailing
// newline dropped.
//
//em2:reference-only the telemetry tests read the captured stream with it
func (m *MemorySink) Lines() []string {
	var out []string
	start := 0
	for i, c := range m.buf {
		if c == '\n' {
			out = append(out, string(m.buf[start:i]))
			start = i + 1
		}
	}
	if start < len(m.buf) {
		out = append(out, string(m.buf[start:]))
	}
	return out
}

// WriterSink writes the stream to an io.Writer as-is. Close does not
// close the underlying writer (the caller owns it — os.Stdout, a test
// buffer).
type WriterSink struct {
	W io.Writer
}

// Write implements Sink.
func (w *WriterSink) Write(lines []byte) error {
	_, err := w.W.Write(lines)
	return err
}

// Close implements Sink.
func (w *WriterSink) Close() error { return nil }

// FileSink streams to a file through a buffered writer. When flushEvery
// is positive, a background goroutine flushes the buffer periodically so
// a long soak's telemetry is observable on disk while the run is live —
// the one wall-clock concern in this package, and strictly advisory: the
// flush cadence moves bytes that are already encoded, it never changes
// them.
type FileSink struct {
	f    *os.File
	mu   sync.Mutex
	bw   *bufio.Writer
	stop chan struct{}
	done chan struct{}
}

// NewFileSink creates (truncates) path. flushEvery <= 0 disables the
// periodic flusher; the buffer then flushes on Close (and whenever it
// fills).
func NewFileSink(path string, flushEvery time.Duration) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &FileSink{f: f, bw: bufio.NewWriterSize(f, 64<<10)}
	if flushEvery > 0 {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.flushLoop(flushEvery)
	}
	return s, nil
}

func (s *FileSink) flushLoop(every time.Duration) {
	defer close(s.done)
	tick := time.NewTicker(every) //em2:wallclock-ok: advisory flush pacing; moves already-encoded bytes, never changes them
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.mu.Lock()
			s.bw.Flush() //em2:errsink-ok: a flush error resurfaces on the next Write/Close through bufio's sticky error
			s.mu.Unlock()
		}
	}
}

// Write implements Sink.
func (s *FileSink) Write(lines []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.bw.Write(lines)
	return err
}

// Close implements Sink: stop the flusher, flush, close the file.
func (s *FileSink) Close() error {
	if s.stop != nil {
		close(s.stop)
		<-s.done
		s.stop = nil
	}
	s.mu.Lock()
	err := s.bw.Flush()
	s.mu.Unlock()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// maxDatagramBytes bounds one UDP payload; lines batch until the next
// Write would overflow it. Conservatively under the usual 1500-byte MTU.
const maxDatagramBytes = 1400

// UDPSink ships the stream as line-protocol datagrams (the influxd UDP
// ingest format): lines coalesce into packets up to maxDatagramBytes and
// flush when full and on Close. Lossy by nature — a soak watching a
// remote dashboard prefers dropped packets over a stalled machine.
type UDPSink struct {
	c   net.Conn
	buf []byte
}

// NewUDPSink dials addr ("host:port").
func NewUDPSink(addr string) (*UDPSink, error) {
	c, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &UDPSink{c: c, buf: make([]byte, 0, maxDatagramBytes)}, nil
}

// Write implements Sink.
func (u *UDPSink) Write(lines []byte) error {
	if len(lines) > maxDatagramBytes {
		// One oversized Write ships alone: UDP fragments it or drops it,
		// which is this sink's documented failure mode.
		if err := u.flush(); err != nil {
			return err
		}
		_, err := u.c.Write(lines)
		return err
	}
	if len(u.buf)+len(lines) > maxDatagramBytes {
		if err := u.flush(); err != nil {
			return err
		}
	}
	u.buf = append(u.buf, lines...)
	return nil
}

func (u *UDPSink) flush() error {
	if len(u.buf) == 0 {
		return nil
	}
	_, err := u.c.Write(u.buf)
	u.buf = u.buf[:0]
	return err
}

// Close implements Sink.
func (u *UDPSink) Close() error {
	err := u.flush()
	if cerr := u.c.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open builds a sink from a CLI-style destination spec: "mem:" (returns a
// fresh MemorySink), "udp:host:port", "-" (stdout), or a file path. The
// em2soak and serve front ends share it so every command accepts the same
// sink grammar.
func Open(spec string, flushEvery time.Duration) (Sink, error) {
	switch {
	case spec == "":
		return nil, fmt.Errorf("telemetry: empty sink spec")
	case spec == "mem:":
		return &MemorySink{}, nil
	case spec == "-":
		return &WriterSink{W: os.Stdout}, nil
	case len(spec) > 4 && spec[:4] == "udp:":
		return NewUDPSink(spec[4:])
	default:
		return NewFileSink(spec, flushEvery)
	}
}
