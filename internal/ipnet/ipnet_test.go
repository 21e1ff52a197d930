package ipnet

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestIsRFC1918(t *testing.T) {
	cases := []struct {
		addr string
		want bool
	}{
		{"10.0.0.1", true},
		{"10.255.255.255", true},
		{"172.16.0.1", true},
		{"172.31.255.1", true},
		{"172.32.0.1", false},
		{"192.168.1.1", true},
		{"192.169.0.1", false},
		{"8.8.8.8", false},
		{"100.64.0.1", false}, // CGNAT is not RFC1918
		{"2001:db8::1", false},
	}
	for _, c := range cases {
		if got := IsRFC1918(mustAddr(t, c.addr)); got != c.want {
			t.Errorf("IsRFC1918(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestIsPrivate(t *testing.T) {
	cases := []struct {
		addr string
		want bool
	}{
		{"192.168.0.10", true},
		{"100.64.12.1", true},  // CGNAT
		{"169.254.0.5", true},  // link-local
		{"127.0.0.1", true},    // loopback
		{"fd00::1", true},      // ULA
		{"fe80::1", true},      // v6 link-local
		{"::1", true},          // v6 loopback
		{"203.0.113.5", false}, // public (TEST-NET but treated public here)
		{"2001:db8::1", false},
	}
	for _, c := range cases {
		if got := IsPrivate(mustAddr(t, c.addr)); got != c.want {
			t.Errorf("IsPrivate(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
	if IsPrivate(netip.Addr{}) {
		t.Error("invalid address must not be private")
	}
}

// TestIPv4ClassesMatchPrefixes pins the octet tests of IsPrivate and
// IsRFC1918 to netip.Prefix.Contains on the blocks they stand for, over
// every pair of first two octets, as plain IPv4 and mapped into IPv6.
// Each block is at most 16 bits long, so the last two octets cannot
// change the answer; they are set to vary anyway.
func TestIPv4ClassesMatchPrefixes(t *testing.T) {
	prefixes := func(ss ...string) []netip.Prefix {
		ps := make([]netip.Prefix, len(ss))
		for i, s := range ss {
			ps[i] = netip.MustParsePrefix(s)
		}
		return ps
	}
	rfc := prefixes("10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16")
	private := append(prefixes("100.64.0.0/10", "169.254.0.0/16", "127.0.0.0/8"), rfc...)
	in := func(ps []netip.Prefix, a netip.Addr) bool {
		for _, p := range ps {
			if p.Contains(a) {
				return true
			}
		}
		return false
	}
	for pair := 0; pair < 1<<16; pair++ {
		v4 := netip.AddrFrom4([4]byte{byte(pair >> 8), byte(pair), byte(pair * 7), byte(pair * 13)})
		wantPrivate, wantRFC := in(private, v4), in(rfc, v4)
		for _, a := range []netip.Addr{v4, netip.AddrFrom16(v4.As16())} {
			if got := IsPrivate(a); got != wantPrivate {
				t.Fatalf("IsPrivate(%v) = %v, the prefixes say %v", a, got, wantPrivate)
			}
			if got := IsRFC1918(a); got != wantRFC {
				t.Fatalf("IsRFC1918(%v) = %v, the prefixes say %v", a, got, wantRFC)
			}
		}
	}
}

func TestIsPublic(t *testing.T) {
	if !IsPublic(mustAddr(t, "8.8.8.8")) {
		t.Error("8.8.8.8 should be public")
	}
	if IsPublic(mustAddr(t, "10.1.2.3")) {
		t.Error("10.1.2.3 should not be public")
	}
	if IsPublic(mustAddr(t, "0.0.0.0")) {
		t.Error("unspecified should not be public")
	}
	if IsPublic(mustAddr(t, "224.0.0.1")) {
		t.Error("multicast should not be public")
	}
	if IsPublic(netip.Addr{}) {
		t.Error("invalid should not be public")
	}
}

func TestPrivatePublicDisjoint(t *testing.T) {
	// No valid unicast address may be both private and public.
	f := func(b [4]byte) bool {
		a := netip.AddrFrom4(b)
		return !(IsPrivate(a) && IsPublic(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseAddrUnmaps(t *testing.T) {
	a, err := ParseAddr("::ffff:192.168.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Is4() {
		t.Fatalf("expected unmapped IPv4, got %v", a)
	}
	if !IsRFC1918(a) {
		t.Fatal("unmapped 192.168.0.1 should be RFC1918")
	}
	if _, err := ParseAddr("not-an-ip"); err == nil {
		t.Fatal("want parse error")
	}
}

func TestAddrBit(t *testing.T) {
	a := mustAddr(t, "128.0.0.1")
	if AddrBit(a, 0) != 1 {
		t.Error("bit 0 of 128.0.0.1 should be 1")
	}
	if AddrBit(a, 1) != 0 {
		t.Error("bit 1 of 128.0.0.1 should be 0")
	}
	if AddrBit(a, 31) != 1 {
		t.Error("bit 31 of 128.0.0.1 should be 1")
	}
	v6 := mustAddr(t, "8000::")
	if AddrBit(v6, 0) != 1 || AddrBit(v6, 1) != 0 {
		t.Error("v6 bit extraction wrong")
	}
}

func TestAddrBitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range bit")
		}
	}()
	AddrBit(mustAddr(t, "1.2.3.4"), 32)
}

func TestHostAt(t *testing.T) {
	p := netip.MustParsePrefix("192.0.2.0/24")
	a, err := HostAt(p, 0)
	if err != nil || a.String() != "192.0.2.0" {
		t.Fatalf("HostAt 0 = %v, %v", a, err)
	}
	a, err = HostAt(p, 255)
	if err != nil || a.String() != "192.0.2.255" {
		t.Fatalf("HostAt 255 = %v, %v", a, err)
	}
	if _, err = HostAt(p, 256); err == nil {
		t.Fatal("want error for host index beyond /24")
	}
}

func TestHostAtV6(t *testing.T) {
	p := netip.MustParsePrefix("2001:db8::/64")
	a, err := HostAt(p, 1)
	if err != nil || a.String() != "2001:db8::1" {
		t.Fatalf("HostAt = %v, %v", a, err)
	}
	a, err = HostAt(p, 0x10000)
	if err != nil || a.String() != "2001:db8::1:0" {
		t.Fatalf("HostAt = %v, %v", a, err)
	}
}

func TestHostAtCrossesOctets(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/8")
	a, err := HostAt(p, 65536)
	if err != nil || a.String() != "10.1.0.0" {
		t.Fatalf("HostAt = %v, %v", a, err)
	}
}

func TestTrieBasicLookup(t *testing.T) {
	var tr Trie[int]
	if err := tr.Insert(netip.MustParsePrefix("10.0.0.0/8"), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(netip.MustParsePrefix("10.1.0.0/16"), 2); err != nil {
		t.Fatal(err)
	}
	v, err := tr.Lookup(mustAddr(t, "10.1.2.3"))
	if err != nil || v != 2 {
		t.Fatalf("lookup = %v, %v; want 2 (longest match)", v, err)
	}
	v, err = tr.Lookup(mustAddr(t, "10.2.0.1"))
	if err != nil || v != 1 {
		t.Fatalf("lookup = %v, %v; want 1", v, err)
	}
	if _, err := tr.Lookup(mustAddr(t, "11.0.0.1")); err != ErrNoMatch {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
}

func TestTrieLookupPrefix(t *testing.T) {
	var tr Trie[string]
	tr.Insert(netip.MustParsePrefix("192.0.2.0/24"), "doc")
	p, v, err := tr.LookupPrefix(mustAddr(t, "192.0.2.55"))
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "192.0.2.0/24" || v != "doc" {
		t.Fatalf("got %v %q", p, v)
	}
	if _, _, err := tr.LookupPrefix(mustAddr(t, "198.51.100.1")); err != ErrNoMatch {
		t.Fatalf("err = %v", err)
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie[int]
	tr.Insert(netip.MustParsePrefix("0.0.0.0/0"), 99)
	tr.Insert(netip.MustParsePrefix("10.0.0.0/8"), 1)
	v, err := tr.Lookup(mustAddr(t, "8.8.8.8"))
	if err != nil || v != 99 {
		t.Fatalf("default route lookup = %v, %v", v, err)
	}
	v, err = tr.Lookup(mustAddr(t, "10.0.0.1"))
	if err != nil || v != 1 {
		t.Fatalf("more-specific lookup = %v, %v", v, err)
	}
}

func TestTrieFamiliesAreSeparate(t *testing.T) {
	var tr Trie[int]
	tr.Insert(netip.MustParsePrefix("::/0"), 6)
	if _, err := tr.Lookup(mustAddr(t, "1.2.3.4")); err != ErrNoMatch {
		t.Fatal("v6 default route must not match v4 address")
	}
	v, err := tr.Lookup(mustAddr(t, "2001:db8::1"))
	if err != nil || v != 6 {
		t.Fatalf("v6 lookup = %v, %v", v, err)
	}
}

func TestTrieReplaceValue(t *testing.T) {
	var tr Trie[int]
	p := netip.MustParsePrefix("10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("len = %d, want 1", tr.Len())
	}
	v, _ := tr.Lookup(mustAddr(t, "10.0.0.1"))
	if v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
}

func TestTrieInvalidInputs(t *testing.T) {
	var tr Trie[int]
	if err := tr.Insert(netip.Prefix{}, 1); err == nil {
		t.Fatal("want error for invalid prefix")
	}
	if _, err := tr.Lookup(netip.Addr{}); err == nil {
		t.Fatal("want error for invalid address")
	}
}

func TestTrieHostRoute(t *testing.T) {
	var tr Trie[int]
	tr.Insert(netip.MustParsePrefix("203.0.113.7/32"), 7)
	v, err := tr.Lookup(mustAddr(t, "203.0.113.7"))
	if err != nil || v != 7 {
		t.Fatalf("host route lookup = %v, %v", v, err)
	}
	if _, err := tr.Lookup(mustAddr(t, "203.0.113.8")); err != ErrNoMatch {
		t.Fatal("adjacent address must not match /32")
	}
}

func TestTrieWalk(t *testing.T) {
	var tr Trie[int]
	prefixes := []string{"10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/16", "2001:db8::/32"}
	for i, s := range prefixes {
		tr.Insert(netip.MustParsePrefix(s), i)
	}
	seen := map[string]int{}
	tr.Walk(func(p netip.Prefix, v int) bool {
		seen[p.String()] = v
		return true
	})
	if len(seen) != len(prefixes) {
		t.Fatalf("walked %d prefixes, want %d: %v", len(seen), len(prefixes), seen)
	}
	for i, s := range prefixes {
		if seen[s] != i {
			t.Fatalf("prefix %s = %d, want %d", s, seen[s], i)
		}
	}
}

func TestTrieWalkEarlyStop(t *testing.T) {
	var tr Trie[int]
	tr.Insert(netip.MustParsePrefix("10.0.0.0/8"), 0)
	tr.Insert(netip.MustParsePrefix("11.0.0.0/8"), 1)
	count := 0
	tr.Walk(func(netip.Prefix, int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("visited %d, want 1", count)
	}
}

func TestTrieLongestMatchProperty(t *testing.T) {
	// Against a set of random prefixes, trie lookup must agree with a
	// brute-force longest-match scan.
	rng := rand.New(rand.NewSource(20))
	var tr Trie[int]
	type entry struct {
		p netip.Prefix
		v int
	}
	var entries []entry
	for i := 0; i < 200; i++ {
		var b [4]byte
		rng.Read(b[:])
		bits := rng.Intn(25) + 8
		p, err := netip.AddrFrom4(b).Prefix(bits)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, entry{p, i})
		tr.Insert(p, i)
	}
	for trial := 0; trial < 500; trial++ {
		var b [4]byte
		rng.Read(b[:])
		addr := netip.AddrFrom4(b)
		bestLen, bestV := -1, 0
		for _, e := range entries {
			if e.p.Contains(addr) && e.p.Bits() >= bestLen {
				// Later entries replace earlier equal-length ones,
				// matching Insert's replace semantics.
				bestLen, bestV = e.p.Bits(), e.v
			}
		}
		v, err := tr.Lookup(addr)
		if bestLen < 0 {
			if err != ErrNoMatch {
				t.Fatalf("addr %v: err = %v, want ErrNoMatch", addr, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("addr %v: %v", addr, err)
		}
		if v != bestV {
			t.Fatalf("addr %v: got %d, want %d", addr, v, bestV)
		}
	}
}

func TestPrefixSet(t *testing.T) {
	var s PrefixSet
	if err := s.AddString("1.66.0.0/16"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddString("110.163.0.0/16"); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(mustAddr(t, "1.66.12.34")) {
		t.Fatal("expected member")
	}
	if s.Contains(mustAddr(t, "9.9.9.9")) {
		t.Fatal("unexpected member")
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if err := s.AddString("garbage"); err == nil {
		t.Fatal("want parse error")
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(30))
	var tr Trie[int]
	for i := 0; i < 100000; i++ {
		var buf [4]byte
		rng.Read(buf[:])
		bits := rng.Intn(17) + 8
		p, _ := netip.AddrFrom4(buf).Prefix(bits)
		tr.Insert(p, i)
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		var buf [4]byte
		rng.Read(buf[:])
		addrs[i] = netip.AddrFrom4(buf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)]) //nolint:errcheck // miss is fine
	}
}
