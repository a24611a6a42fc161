// Package telemetry turns the machine's periodically-sampled metrics
// (transport.Sample) into time series behind a small Sink interface: an
// influx-style line-protocol encoder plus in-memory, writer/file and UDP
// sinks.
//
// The cadence that drives sampling is *virtual time*: the serve loop emits
// a sample every N cycles of its deterministic arrival clock, and a
// closed-loop cluster run emits one end-of-run sample stamped at the
// slowest thread's halt cycle. Timestamps are therefore machine cycles,
// not wall-clock nanoseconds, and the encoded stream at a fixed seed is
// byte-identical across the channel and TCP transports — the property the
// serve differential tests pin. Wall clock exists only in the advisory
// sink flush layer (FileSink's periodic flusher), never in an encoded
// byte.
//
// The deterministic encoding deliberately excludes transport.Sample.Net:
// wire-level batching differs across transports (and is zero in-process),
// so NetStats stay on the advisory surfaces — heartbeats, -wire-stats,
// timeout diagnostics — and never enter a stream two backends must agree
// on.
package telemetry

import "strconv"

// Sink consumes encoded line-protocol bytes. Implementations must treat
// each Write as one or more complete lines (the encoders never split a
// line across Writes) and must not retain the slice. Write and Close are
// called from a single sampling goroutine; sinks need no internal locking
// beyond what their transport demands.
type Sink interface {
	Write(lines []byte) error
	// Close flushes anything buffered and releases the sink's resources.
	Close() error
}

// Tag is one key=value dimension of a Point. Tags are emitted in the
// order given; callers own sort order (determinism is the caller's
// contract, and every caller in this repo emits a fixed tag list).
type Tag struct {
	Key   string
	Value string
}

// Field is one measured value: an int64 counter/gauge (rendered "123i")
// or a float ("4.5"). Use Int and Float to construct.
type Field struct {
	Key   string
	I     int64
	F     float64
	Float bool
}

// Int returns an integer field.
func Int(key string, v int64) Field { return Field{Key: key, I: v} }

// Float returns a float field.
//
//em2:reference-only the telemetry tests encode float fields with it
func Float(key string, v float64) Field { return Field{Key: key, F: v, Float: true} }

// Point is one line-protocol point: measurement, tags, fields, and a
// virtual-time timestamp in machine cycles.
type Point struct {
	Name   string
	Tags   []Tag
	Fields []Field
	Cycle  uint64
}

// AppendPoint appends p's line-protocol encoding to b and returns the
// extended slice:
//
//	name,tag=value field=123i,other=4.5 <cycle>\n
//
// Appending into a reused buffer allocates nothing — the telemetry hot
// path. A point with no fields encodes nothing (line protocol has no
// field-less points) and returns b unchanged.
func AppendPoint(b []byte, p *Point) []byte {
	if len(p.Fields) == 0 {
		return b
	}
	b = appendEscaped(b, p.Name, false)
	for _, t := range p.Tags {
		b = append(b, ',')
		b = appendEscaped(b, t.Key, true)
		b = append(b, '=')
		b = appendEscaped(b, t.Value, true)
	}
	b = append(b, ' ')
	for i, f := range p.Fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEscaped(b, f.Key, true)
		b = append(b, '=')
		if f.Float {
			b = strconv.AppendFloat(b, f.F, 'g', -1, 64)
		} else {
			b = strconv.AppendInt(b, f.I, 10)
			b = append(b, 'i')
		}
	}
	b = append(b, ' ')
	b = strconv.AppendUint(b, p.Cycle, 10)
	return append(b, '\n')
}

// appendEscaped appends s with line-protocol escaping: commas and spaces
// always, '=' additionally inside tag keys/values and field keys (eq).
// Every name this repo emits is a plain identifier, so the common path
// copies bytes untouched.
func appendEscaped(b []byte, s string, eq bool) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ',' || c == ' ' || (eq && c == '=') || c == '\\' {
			b = append(b, '\\')
		}
		b = append(b, c)
	}
	return b
}
