// Package ipnet provides the IP address utilities the last-mile pipeline
// needs: private/special-purpose address classification (to find the
// boundary between the home network and the ISP edge in a traceroute), a
// binary radix trie with longest-prefix match (to map probe addresses to
// origin ASes, as the paper does against BGP data), and prefix sets (to
// strip mobile prefixes from CDN logs).
package ipnet

import (
	"fmt"
	"net/netip"
)

// The IPv6 special-purpose blocks. The IPv4 ones are decided from the
// first two octets (private4).
var (
	ulaV6  = netip.MustParsePrefix("fc00::/7")
	linkV6 = netip.MustParsePrefix("fe80::/10")
)

// IsRFC1918 reports whether addr falls in one of the three RFC 1918
// private IPv4 blocks.
func IsRFC1918(addr netip.Addr) bool {
	if a := addr.Unmap(); a.Is4() {
		b := a.As4()
		return rfc1918(b[0], b[1])
	}
	return false
}

// rfc1918 reports whether an IPv4 address with first octets o0 and o1
// is in 10.0.0.0/8, 172.16.0.0/12 or 192.168.0.0/16.
func rfc1918(o0, o1 byte) bool {
	return o0 == 10 || o0 == 172 && o1&0xf0 == 16 || o0 == 192 && o1 == 168
}

// private4 reports whether an IPv4 address with first octets o0 and o1
// is on the subscriber side: RFC 1918, 100.64.0.0/10 (CGNAT),
// 169.254.0.0/16 (link-local) or 127.0.0.0/8 (loopback). Every one of
// these blocks is at most 16 bits long, so two octets decide it.
func private4(o0, o1 byte) bool {
	switch o0 {
	case 100:
		return o1&0xc0 == 64
	case 127:
		return true
	case 169:
		return o1 == 254
	}
	return rfc1918(o0, o1)
}

// IsPrivate reports whether addr should be treated as belonging to the
// subscriber side of the last mile: RFC 1918, CGNAT (RFC 6598), link-local,
// loopback, IPv6 ULA, or IPv6 link-local. The paper identifies the ISP edge
// as the first hop that is NOT one of these.
func IsPrivate(addr netip.Addr) bool {
	if !addr.IsValid() {
		return false
	}
	a := addr.Unmap()
	if a.Is4() {
		b := a.As4()
		return private4(b[0], b[1])
	}
	return ulaV6.Contains(a) || linkV6.Contains(a) || a.IsLoopback()
}

// IsPublic reports whether addr is a valid, globally routable unicast
// address (the paper's "first public IP").
func IsPublic(addr netip.Addr) bool {
	if !addr.IsValid() || addr.IsUnspecified() || addr.IsMulticast() {
		return false
	}
	return !IsPrivate(addr)
}

// ParseAddr parses s into a netip.Addr, unmapping IPv4-in-IPv6 forms so
// that equal addresses compare equal.
func ParseAddr(s string) (netip.Addr, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Addr{}, fmt.Errorf("ipnet: %w", err)
	}
	return a.Unmap(), nil
}

// AddrBit returns bit i (0 = most significant) of addr's binary
// representation. It panics if i is out of range for the address family.
func AddrBit(addr netip.Addr, i int) byte {
	bytes := addr.As16()
	off := 0
	if addr.Is4() {
		bytes16 := addr.As4()
		if i < 0 || i >= 32 {
			panic(fmt.Sprintf("ipnet: bit %d out of range for IPv4", i))
		}
		return (bytes16[i/8] >> (7 - i%8)) & 1
	}
	if i < 0 || i >= 128 {
		panic(fmt.Sprintf("ipnet: bit %d out of range for IPv6", i))
	}
	return (bytes[off+i/8] >> (7 - i%8)) & 1
}

// HostAt returns the n-th host address inside prefix (0 = network
// address). It returns an error when n exceeds the prefix's host space.
// The scenario generator uses it to hand out deterministic addresses.
func HostAt(prefix netip.Prefix, n uint64) (netip.Addr, error) {
	bits := prefix.Addr().BitLen()
	hostBits := bits - prefix.Bits()
	if hostBits < 64 && hostBits >= 0 {
		max := uint64(1) << uint(hostBits)
		if hostBits != 0 && n >= max {
			return netip.Addr{}, fmt.Errorf("ipnet: host index %d exceeds /%d prefix", n, prefix.Bits())
		}
		if hostBits == 0 && n > 0 {
			return netip.Addr{}, fmt.Errorf("ipnet: host index %d exceeds /%d prefix", n, prefix.Bits())
		}
	}
	if prefix.Addr().Is4() {
		b := prefix.Masked().Addr().As4()
		v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		v += uint32(n)
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}), nil
	}
	b := prefix.Masked().Addr().As16()
	// Add n to the low 64 bits; prefixes used by the generator are /64 or
	// shorter, so the carry never propagates past bit 64 in practice.
	var low uint64
	for i := 8; i < 16; i++ {
		low = low<<8 | uint64(b[i])
	}
	low += n
	for i := 15; i >= 8; i-- {
		b[i] = byte(low)
		low >>= 8
	}
	return netip.AddrFrom16(b), nil
}
