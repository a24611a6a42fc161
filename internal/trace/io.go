package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary trace format, version 1:
//
//	magic   "EMT1"
//	uvarint name length, name bytes
//	uvarint numThreads
//	uvarint wordBytes
//	uvarint access count
//	per access:
//	  uvarint thread
//	  uvarint address delta, zig-zag encoded against the previous address
//	  byte    flags (bit0 = write)
//	  varint  stack delta
//
// Delta-encoding addresses keeps OCEAN-style strided traces compact.

var magic = [4]byte{'E', 'M', 'T', '1'}

// Write serializes the trace to w in the binary format.
func Write(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := writeUvarint(uint64(t.NumThreads)); err != nil {
		return err
	}
	if err := writeUvarint(uint64(t.WordBytes)); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(t.Accesses))); err != nil {
		return err
	}
	var prev Addr
	for _, a := range t.Accesses {
		if err := writeUvarint(uint64(a.Thread)); err != nil {
			return err
		}
		if err := writeVarint(int64(a.Addr) - int64(prev)); err != nil {
			return err
		}
		prev = a.Addr
		flags := byte(0)
		if a.Write {
			flags |= 1
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		if err := writeVarint(int64(a.StackDelta)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write.
//
//em2:reference-only the trace tests round-trip Write through it
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: name length: %w", err)
	}
	const maxName = 1 << 16
	if nameLen > maxName {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, fmt.Errorf("trace: name: %w", err)
	}
	numThreads, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: thread count: %w", err)
	}
	if numThreads == 0 || numThreads > 1<<20 {
		return nil, fmt.Errorf("trace: implausible thread count %d", numThreads)
	}
	wordBytes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: word size: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: access count: %w", err)
	}
	t := New(string(nameBytes), int(numThreads))
	t.WordBytes = int(wordBytes)
	t.Accesses = make([]Access, 0, count)
	var prev int64
	for i := uint64(0); i < count; i++ {
		th, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: access %d thread: %w", i, err)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: access %d addr: %w", i, err)
		}
		prev += delta
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: access %d flags: %w", i, err)
		}
		sd, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: access %d stack delta: %w", i, err)
		}
		if th >= numThreads {
			return nil, fmt.Errorf("trace: access %d has thread %d >= %d", i, th, numThreads)
		}
		t.Accesses = append(t.Accesses, Access{
			Thread:     int(th),
			Addr:       Addr(prev),
			Write:      flags&1 != 0,
			StackDelta: int8(sd),
		})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteText renders the trace in a one-access-per-line text form:
// "<thread> R|W <hex addr> [stackDelta]". Intended for debugging and for
// feeding hand-written micro-traces to tests.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace %s threads=%d word=%d\n", t.Name, t.NumThreads, t.WordBytes)
	for _, a := range t.Accesses {
		op := "R"
		if a.Write {
			op = "W"
		}
		if a.StackDelta != 0 {
			fmt.Fprintf(bw, "%d %s %#x %d\n", a.Thread, op, uint64(a.Addr), a.StackDelta)
		} else {
			fmt.Fprintf(bw, "%d %s %#x\n", a.Thread, op, uint64(a.Addr))
		}
	}
	return bw.Flush()
}
