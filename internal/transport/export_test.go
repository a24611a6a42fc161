package transport

// WireLen returns the exact encoded size of c.
func (c Context) WireLen() int { return ContextWireBytes + len(c.Sched) }

// WireBytes is the encoded length of s's control body (wireBytes).
func (s JobSpec) WireBytes() int { return s.wireBytes() }

// EncodeWire returns the encoding of c in a fresh slice.
func (c Context) EncodeWire() []byte {
	return c.AppendWire(make([]byte, 0, c.WireLen()))
}

// Fault returns the first protocol error n failed on, or nil.
func (n *Node) Fault() error {
	if err := n.fault.Load(); err != nil {
		return *err
	}
	return nil
}
