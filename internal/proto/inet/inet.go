// Package inet holds the small pieces every networking router shares:
// IPv4-style addresses, the participants attribute value (§4.1's
// PA_NET_PARTICIPANTS), protocol numbers, and the Internet checksum.
package inet

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"scout/internal/attr"
)

// Addr is an IPv4 address.
type Addr [4]byte

// IP builds an address from four octets.
func IP(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

func (a Addr) String() string { return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3]) }

// Uint32 returns the address in host integer form.
func (a Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// AddrFromUint32 converts back from integer form.
func AddrFromUint32(v uint32) Addr {
	var a Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// SameSubnet reports whether a and b share the network selected by mask —
// the IP-local knowledge the paper uses as its path-creation example (§2.2:
// "if IP can determine that the remote host is on the same Ethernet").
func SameSubnet(a, b, mask Addr) bool {
	for i := range a {
		if a[i]&mask[i] != b[i]&mask[i] {
			return false
		}
	}
	return true
}

// Participants is the value of the PA_NET_PARTICIPANTS attribute: the
// network address of the remote process a path talks to.
type Participants struct {
	RemoteAddr Addr
	RemotePort uint16
}

func (p Participants) String() string {
	return fmt.Sprintf("%s:%d", p.RemoteAddr, p.RemotePort)
}

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Ethernet types (also carried in PA_PROTID when IP hands path creation to
// ETH, mirroring the paper's "reset by each networking router" behaviour).
const (
	EtherTypeIP  = 0x0800
	EtherTypeARP = 0x0806
)

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 { return ^fold(sum(0, b)) }

// ChecksumPseudo computes the checksum of payload prefixed by the UDP/TCP
// pseudo-header. The one's-complement sum is commutative and associative, so
// the pseudo-header words are folded in directly instead of materializing a
// prefixed copy of the payload — this runs once per checksummed packet on
// the data path and must not allocate.
func ChecksumPseudo(src, dst Addr, proto uint8, payload []byte) uint16 {
	// The zero byte before proto and the 16-bit length ride in the low
	// half-words; a 32-bit address is two 16-bit words already in place.
	acc := uint64(src.Uint32()) + uint64(dst.Uint32()) + uint64(proto) + uint64(uint16(len(payload)))
	return ^fold(sum(acc, payload))
}

// sum adds b to the one's-complement accumulator acc eight bytes at a time.
// A big-endian 64-bit load holds four 16-bit words in their wire lanes, and
// 2^16 ≡ 1 (mod 2^16-1), so the 64-bit sum with end-around carry folds to
// the same 16-bit result as adding the words one by one (RFC 1071 §2(B)).
// Every load starts at an even offset, so an odd tail byte lands in the
// high half of its word, as the RFC pads it.
func sum(acc uint64, b []byte) uint64 {
	var c uint64
	for len(b) >= 32 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[8:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[16:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[24:]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(tail[:]), c)
	}
	// The last carry goes around once more; if that wraps, acc is 0 and
	// the second add cannot carry.
	acc, c = bits.Add64(acc, 0, c)
	return acc + c
}

// fold reduces a 64-bit one's-complement accumulator to 16 bits. A nonzero
// accumulator never folds to zero, so all-zero input keeps its 0x0000 sum
// and everything else lands in [1, 0xffff], exactly as the 16-bit loop does.
func fold(acc uint64) uint16 {
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	return uint16(acc)
}

// Attribute names used by the networking routers beyond the paper-named
// ones; declared in the central vocabulary (package attr) and re-exported
// here for doc locality.
const (
	// AttrEthDst carries the resolved destination MAC as a path
	// attribute; IP's stage sets it once ARP answers, ETH's stage reads
	// it per frame. Value: netdev.MAC.
	AttrEthDst = attr.EthDst
	// AttrLocalPort requests a specific local UDP/TCP port. Value: int.
	AttrLocalPort = attr.LocalPort
)
