package transport

// Fault returns the first protocol error n failed on, or nil.
func (n *Node) Fault() error {
	if err := n.fault.Load(); err != nil {
		return *err
	}
	return nil
}
