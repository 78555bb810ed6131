package host

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"scout/internal/mpeg"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/mflow"
	"scout/internal/proto/udp"
	"scout/internal/sim"
)

// refSum16 is the one's-complement sum of b taken 16 bits at a time, seeded
// with acc, as RFC 1071 states it.
func refSum16(acc uint32, b []byte) uint32 {
	for ; len(b) >= 2; b = b[2:] {
		acc += uint32(binary.BigEndian.Uint16(b))
	}
	if len(b) == 1 {
		acc += uint32(b[0]) << 8
	}
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return acc
}

// refDataFrame builds a data packet's frame the way the per-layer transmit
// path did: the MFLOW payload, then a fresh UDP datagram, IP packet and
// Ethernet frame, each a new buffer holding a copy of the layer above.
func refDataFrame(src *Host, dstMAC netdev.MAC, dst inet.Addr, dstPort, srcPort, ipID uint16, hdr mflow.Header, alf []byte) []byte {
	payload := make([]byte, mflow.HeaderLen+len(alf))
	hdr.Put(payload[:mflow.HeaderLen])
	copy(payload[mflow.HeaderLen:], alf)

	dg := make([]byte, udp.HeaderLen+len(payload))
	udp.Header{SrcPort: srcPort, DstPort: dstPort, Length: uint16(len(dg))}.Put(dg[:udp.HeaderLen])
	copy(dg[udp.HeaderLen:], payload)
	pseudo := refSum16(0, src.Addr[:])
	pseudo = refSum16(pseudo, dst[:])
	pseudo = refSum16(pseudo, []byte{0, inet.ProtoUDP, byte(len(dg) >> 8), byte(len(dg))})
	ck := ^uint16(refSum16(pseudo, dg))
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(dg[6:8], ck)

	pkt := make([]byte, ip.HeaderLen+len(dg))
	ip.Header{TotalLen: uint16(len(pkt)), ID: ipID, TTL: 64, Proto: inet.ProtoUDP, Src: src.Addr, Dst: dst}.Put(pkt[:ip.HeaderLen])
	copy(pkt[ip.HeaderLen:], dg)

	frame := make([]byte, eth.HeaderLen+len(pkt))
	eth.Header{Dst: dstMAC, Src: src.Dev.Addr, Type: inet.EtherTypeIP}.Put(frame[:eth.HeaderLen])
	copy(frame[eth.HeaderLen:], pkt)
	return frame
}

// txRig is a source host whose ARP cache already knows a silent capture
// device, so every frame the source transmits lands in frames.
type txRig struct {
	eng    *sim.Engine
	h      *Host
	sink   *netdev.Device
	dst    inet.Addr
	src    *Source
	frames [][]byte
	keep   bool
}

func newTxRig(t *testing.T) *txRig {
	t.Helper()
	r := &txRig{eng: sim.New(1), dst: inet.IP(10, 0, 0, 2), keep: true}
	link := netdev.NewLink(r.eng, netdev.LinkConfig{BitsPerSec: 100_000_000})
	r.h = New(link, netdev.MAC{2, 0, 0, 0, 0, 1}, inet.IP(10, 0, 0, 1))
	r.sink = netdev.NewDevice(link, netdev.MAC{2, 0, 0, 0, 0, 2}, nil)
	r.sink.OnReceive = func(m *msg.Msg) {
		if r.keep {
			r.frames = append(r.frames, append([]byte(nil), m.Bytes()...))
		}
		m.Free()
	}
	r.h.arpCache[r.dst] = r.sink.Addr
	clip := mpeg.ClipSpec{Name: "T", Frames: 12, W: 320, H: 240, FPS: 30, GOP: 6, AvgPBits: 60000, Jitter: 0.3}
	src, err := NewSource(r.h, SourceConfig{SrcPort: 7000, Prepared: PrepareClip(clip, 0, 3)})
	if err != nil {
		t.Fatal(err)
	}
	src.dst, src.dstPort = r.dst, 5004
	r.src = src
	return r
}

// The single-buffer transmit path puts exactly the bytes on the wire that the
// per-layer copying path did.
func TestDataPacketWireBytesMatchCopyingPath(t *testing.T) {
	r := newTxRig(t)
	n := r.src.NumPackets()
	if n < 20 {
		t.Fatalf("prepared only %d packets", n)
	}
	for idx := 0; idx < n; idx++ {
		r.eng.RunFor(time.Duration(idx+1) * time.Microsecond) // vary the timestamp
		r.src.sendPacket(uint32(idx+1), false)
	}
	r.eng.Run()
	if len(r.frames) != n {
		t.Fatalf("captured %d frames, sent %d", len(r.frames), n)
	}
	for idx, got := range r.frames {
		hdr, err := mflow.Parse(got[eth.HeaderLen+ip.HeaderLen+udp.HeaderLen:])
		if err != nil {
			t.Fatal(err)
		}
		want := refDataFrame(r.h, r.sink.Addr, r.dst, 5004, 7000, uint16(idx+1),
			mflow.Header{Kind: mflow.KindData, Seq: uint32(idx + 1), TS: hdr.TS}, r.src.packets[idx])
		if !bytes.Equal(got, want) {
			t.Fatalf("packet %d (%d bytes): wire bytes differ from the copying path's", idx, len(got))
		}
		if hdr.TS == 0 {
			t.Fatalf("packet %d carries no timestamp", idx)
		}
	}
}

// Once ARP is resolved a data packet costs one buffer and its message view,
// with nothing per layer.
func TestDataPacketAllocations(t *testing.T) {
	r := newTxRig(t)
	r.keep = false
	seq := uint32(0)
	allocs := testing.AllocsPerRun(200, func() {
		seq = seq%uint32(r.src.NumPackets()) + 1
		r.src.sendPacket(seq, false)
		r.eng.Run()
	})
	if allocs > 3 {
		t.Fatalf("a data packet costs %.1f allocations, want at most 3", allocs)
	}
}
