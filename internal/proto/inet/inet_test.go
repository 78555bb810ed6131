package inet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddrString(t *testing.T) {
	if got := IP(10, 0, 0, 1).String(); got != "10.0.0.1" {
		t.Fatalf("String = %q", got)
	}
}

func TestAddrUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return AddrFromUint32(v).Uint32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSameSubnet(t *testing.T) {
	mask := IP(255, 255, 255, 0)
	if !SameSubnet(IP(10, 0, 0, 1), IP(10, 0, 0, 200), mask) {
		t.Fatal("same /24 not detected")
	}
	if SameSubnet(IP(10, 0, 0, 1), IP(10, 0, 1, 1), mask) {
		t.Fatal("different /24 matched")
	}
	if !SameSubnet(IP(10, 0, 0, 1), IP(10, 77, 3, 9), IP(255, 0, 0, 0)) {
		t.Fatal("same /8 not detected")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: the checksum of this sequence is 0xddf2 before
	// complement... use the self-verification property instead: appending
	// the checksum makes the total sum verify to 0.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	ck := Checksum(data)
	withCk := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
	if Checksum(withCk) != 0 {
		t.Fatalf("checksum does not self-verify: %#04x", Checksum(withCk))
	}
}

func TestChecksumOddLength(t *testing.T) {
	data := []byte{0xab, 0xcd, 0xef}
	ck := Checksum(data)
	withCk := append(append([]byte(nil), data...), 0x00) // pad to even
	_ = withCk
	// Verify oddness handled: manual sum 0xabcd + 0xef00 = 0x19acd ->
	// 0x9acd + 1 = 0x9ace -> ^0x9ace.
	if ck != ^uint16(0x9ace) {
		t.Fatalf("odd checksum = %#04x", ck)
	}
}

func TestChecksumPseudoDetectsCorruption(t *testing.T) {
	src, dst := IP(10, 0, 0, 1), IP(10, 0, 0, 2)
	payload := []byte{1, 2, 3, 4, 5, 6, 0, 0} // checksum field zeroed
	ck := ChecksumPseudo(src, dst, ProtoUDP, payload)
	// Embed and verify.
	payload[6] = byte(ck >> 8)
	payload[7] = byte(ck)
	if ChecksumPseudo(src, dst, ProtoUDP, payload) != 0 {
		t.Fatal("pseudo checksum does not verify")
	}
	payload[0] ^= 0xff
	if ChecksumPseudo(src, dst, ProtoUDP, payload) == 0 {
		t.Fatal("corruption not detected")
	}
	payload[0] ^= 0xff // restore
	// Note: swapping src and dst does NOT change a ones-complement sum
	// (addition commutes) — a genuine limitation of the real Internet
	// checksum, preserved here.
	if ChecksumPseudo(dst, src, ProtoUDP, payload) != 0 {
		t.Fatal("ones-complement commutativity violated")
	}
}

// Property: checksum of data+checksum always verifies to zero.
func TestPropertyChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		ck := Checksum(data)
		with := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
		return Checksum(with) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refChecksum is the RFC 1071 reference: 16-bit words summed one at a
// time, an odd tail byte padded on the right, carries folded at the end.
// The word-at-a-time sum must agree with it bit for bit.
func refChecksum(prefix []uint16, b []byte) uint16 {
	var sum uint32
	for _, w := range prefix {
		sum += uint32(w)
	}
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

func refPseudo(src, dst Addr, proto uint8, payload []byte) uint16 {
	words := []uint16{
		uint16(src[0])<<8 | uint16(src[1]), uint16(src[2])<<8 | uint16(src[3]),
		uint16(dst[0])<<8 | uint16(dst[1]), uint16(dst[2])<<8 | uint16(dst[3]),
		uint16(proto), uint16(len(payload)),
	}
	return refChecksum(words, payload)
}

func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, b []byte) {
		t.Helper()
		if got, want := Checksum(b), refChecksum(nil, b); got != want {
			t.Fatalf("%s len %d: Checksum = %#04x, reference %#04x", name, len(b), got, want)
		}
		var src, dst Addr
		rng.Read(src[:])
		rng.Read(dst[:])
		proto := uint8(rng.Intn(256))
		if got, want := ChecksumPseudo(src, dst, proto, b), refPseudo(src, dst, proto, b); got != want {
			t.Fatalf("%s len %d: ChecksumPseudo = %#04x, reference %#04x", name, len(b), got, want)
		}
	}
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(2001))
		rng.Read(b)
		check("random", b)
	}
	for n := 0; n <= 70; n++ { // every tail shape, odd lengths included
		b := make([]byte, n)
		check("zeros", b)
		for i := range b {
			b[i] = 0xff
		}
		check("ones", b)
		rng.Read(b)
		check("short random", b)
	}
	for _, n := range []int{1399, 1400, 1401, 1999, 2000} {
		b := make([]byte, n)
		check("zeros", b)
		for i := range b {
			b[i] = 0xff
		}
		check("ones", b)
	}
	// The all-zero input keeps its distinct checksum (0xffff), and a sum of
	// exactly 0xffff complements to 0: the two one's-complement zeros are
	// not conflated.
	if ck := Checksum(make([]byte, 64)); ck != 0xffff {
		t.Fatalf("all-zero checksum = %#04x, want 0xffff", ck)
	}
	if ck := Checksum([]byte{0xff, 0xff}); ck != 0 {
		t.Fatalf("checksum of 0xffff = %#04x, want 0", ck)
	}
}

func FuzzChecksumPseudo(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), uint8(0))
	f.Add([]byte{0xab, 0xcd, 0xef}, uint32(0x0a000001), uint32(0x0a000002), uint8(ProtoUDP))
	f.Add(bytes.Repeat([]byte{0xff}, 1401), uint32(0xffffffff), uint32(0xffffffff), uint8(0xff))
	f.Fuzz(func(t *testing.T, payload []byte, src, dst uint32, proto uint8) {
		s, d := AddrFromUint32(src), AddrFromUint32(dst)
		ck := ChecksumPseudo(s, d, proto, payload)
		if want := refPseudo(s, d, proto, payload); ck != want {
			t.Fatalf("ChecksumPseudo = %#04x, reference %#04x", ck, want)
		}
		if got, want := Checksum(payload), refChecksum(nil, payload); got != want {
			t.Fatalf("Checksum = %#04x, reference %#04x", got, want)
		}
	})
}

func BenchmarkChecksumPseudo(b *testing.B) {
	payload := make([]byte, 1400)
	rand.New(rand.NewSource(1)).Read(payload)
	src, dst := IP(10, 0, 0, 1), IP(10, 0, 0, 2)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for b.Loop() {
		ChecksumPseudo(src, dst, ProtoUDP, payload)
	}
}
