// Package noc models the on-chip interconnect of the Execution Migration
// Machine: the six-virtual-network channel layout the paper requires for
// deadlock freedom and the analytical latency/traffic model used by the EM²
// cost engine and the DP oracle.
//
// The paper's channel accounting (§3): migrations need two virtual networks
// (one for ordinary guest-bound migrations, one for evictions travelling to
// their native context, per Cho et al. [10]); remote cache access needs a
// disjoint request/reply pair; and off-chip memory needs its own
// request/reply pair — six virtual channels in total.
package noc

import "fmt"

// VNet identifies one of the six virtual networks.
type VNet int

// The six virtual networks, in priority order. Replies and evictions must be
// consumable without depending on lower-numbered networks; the deadlock
// argument in TestVNetDependencyDAG checks the resulting dependency graph.
const (
	VNMigration VNet = iota // context migrations toward guest contexts
	VNEviction              // evicted contexts travelling to their native core
	VNRemoteReq             // remote-cache-access requests
	VNRemoteRep             // remote-cache-access replies
	VNMemReq                // cache-miss requests to the memory controller
	VNMemRep                // memory controller replies
	NumVNets
)

var vnetNames = [NumVNets]string{
	"migration", "eviction", "remote-req", "remote-rep", "mem-req", "mem-rep",
}

// String implements fmt.Stringer.
//
//em2:reference-only fmt.Stringer for test failure output
func (v VNet) String() string {
	if v < 0 || v >= NumVNets {
		return fmt.Sprintf("vnet(%d)", int(v))
	}
	return vnetNames[v]
}

// Valid reports whether v names one of the six virtual networks.
//
//em2:reference-only the noc tests check the virtual-network table with it
func (v VNet) Valid() bool { return v >= 0 && v < NumVNets }

// DependsOn reports whether consuming a message on network a may require
// injecting a message on network b (the message-dependency relation used in
// deadlock analysis). Under EM² the relation is:
//
//	migration → eviction            (arrival may displace a guest context)
//	remote-req → remote-rep         (request is answered)
//	mem-req → mem-rep               (miss is answered)
//	migration/eviction/remote-rep/mem-rep → (nothing)
//
// Because the graph is acyclic and each edge crosses to a distinct network,
// wormhole routing with per-VN buffering cannot deadlock (each terminal
// network is always consumable).
//
//em2:reference-only the noc tests check the virtual-network dependency order is acyclic
func DependsOn(a, b VNet) bool {
	switch a {
	case VNMigration:
		return b == VNEviction
	case VNRemoteReq:
		return b == VNRemoteRep
	case VNMemReq:
		return b == VNMemRep
	}
	return false
}

// Kind tags the semantic payload of a message.
type Kind int

// Message kinds carried by the six networks.
const (
	KindMigration Kind = iota // thread context moving to a guest context
	KindEviction              // thread context returning to its native context
	KindRemoteRead
	KindRemoteWrite
	KindRemoteReadRep
	KindRemoteWriteAck
	KindMemRead
	KindMemWrite
	KindMemRep
)

var kindNames = []string{
	"migration", "eviction", "remote-read", "remote-write",
	"remote-read-rep", "remote-write-ack", "mem-read", "mem-write", "mem-rep",
}

// String implements fmt.Stringer.
//
//em2:reference-only fmt.Stringer for test failure output
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// VNetFor returns the virtual network that carries a message kind.
//
//em2:reference-only the noc tests check every message kind has a virtual network
func VNetFor(k Kind) VNet {
	switch k {
	case KindMigration:
		return VNMigration
	case KindEviction:
		return VNEviction
	case KindRemoteRead, KindRemoteWrite:
		return VNRemoteReq
	case KindRemoteReadRep, KindRemoteWriteAck:
		return VNRemoteRep
	case KindMemRead, KindMemWrite:
		return VNMemReq
	case KindMemRep:
		return VNMemRep
	}
	panic(fmt.Sprintf("noc: unknown message kind %d", int(k)))
}

// Config holds the link-level parameters of the interconnect.
type Config struct {
	FlitBits     int // link width: bits transferred per cycle per link
	PerHopCycles int // router pipeline + link traversal latency per hop
	InjectCycles int // fixed source injection overhead (ingress serialization)
	EjectCycles  int // fixed destination ejection overhead
}

// DefaultConfig mirrors the EM² evaluation platform: 128-bit flits, 2-cycle
// hop latency (1 router + 1 link), one cycle each to enter and leave the
// network.
func DefaultConfig() Config {
	return Config{FlitBits: 128, PerHopCycles: 2, InjectCycles: 1, EjectCycles: 1}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.FlitBits <= 0 {
		return fmt.Errorf("noc: FlitBits must be positive, got %d", c.FlitBits)
	}
	if c.PerHopCycles <= 0 {
		return fmt.Errorf("noc: PerHopCycles must be positive, got %d", c.PerHopCycles)
	}
	if c.InjectCycles < 0 || c.EjectCycles < 0 {
		return fmt.Errorf("noc: negative inject/eject cycles")
	}
	return nil
}

// Flits returns the number of flits needed to carry payloadBits plus a head
// flit. Every packet has at least one flit.
func (c Config) Flits(payloadBits int) int {
	if payloadBits < 0 {
		panic(fmt.Sprintf("noc: negative payload %d", payloadBits))
	}
	return 1 + (payloadBits+c.FlitBits-1)/c.FlitBits
}

// Latency returns the zero-load latency in cycles of a packet crossing hops
// links with the given payload: wormhole pipelining means the head flit pays
// the per-hop latency and the body streams behind it, so latency =
// inject + hops·perHop + (flits−1) + eject.
func (c Config) Latency(hops, payloadBits int) int64 {
	if hops < 0 {
		panic(fmt.Sprintf("noc: negative hop count %d", hops))
	}
	f := c.Flits(payloadBits)
	return int64(c.InjectCycles) + int64(hops)*int64(c.PerHopCycles) + int64(f-1) + int64(c.EjectCycles)
}

// Traffic returns the flit·hop product of a packet, the standard on-chip
// energy proxy the paper appeals to when arguing that smaller contexts save
// power.
func (c Config) Traffic(hops, payloadBits int) int64 {
	return int64(c.Flits(payloadBits)) * int64(hops)
}
