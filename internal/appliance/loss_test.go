package appliance

import (
	"encoding/binary"
	"testing"
	"time"

	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/mflow"
	"scout/internal/proto/udp"
	"scout/internal/routers"
	"scout/internal/sim"
)

// Loss-tolerance tests: the appliance under the netdev fault-injection layer.

// sendMFLOWData hand-builds one MFLOW data packet carrying a valid
// single-packet ALF frame and sends it to the video path's port.
func sendMFLOWData(eng *sim.Engine, h *host.Host, dst inet.Addr, dstPort uint16, seq, frameNo uint32) {
	pkts := mpeg.TracePackets(frameNo, mpeg.FrameInfo{Kind: mpeg.FrameP, Bits: 800}, 4, 3, 0)
	alf := pkts[0].Marshal()
	payload := make([]byte, mflow.HeaderLen+len(alf))
	mflow.Header{Kind: mflow.KindData, Seq: seq, TS: int64(eng.Now())}.Put(payload[:mflow.HeaderLen])
	copy(payload[mflow.HeaderLen:], alf)
	h.SendUDP(dst, dstPort, 7000, payload)
}

// Regression (satellite: mflow reorder): a late original overtaken on the
// wire must be delivered, not discarded as a duplicate. Pre-fix, advancing
// the watermark to the ahead packet made every in-flight earlier packet an
// OldDrop and a permanent gap.
func TestMFLOWReorderedOriginalNotDroppedAsDuplicate(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	p, lport, err := k.CreateVideoPath(&VideoAttrs{
		Source:    inet.Participants{RemoteAddr: peerAddr, RemotePort: 7000},
		FPS:       30,
		CostModel: true,
		QueueLen:  32,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sequence numbers arrive 1, 3, 2: packet 2 was overtaken in flight.
	eng.At(sim.Time(time.Millisecond), func() { sendMFLOWData(eng, h, k.Cfg.Addr, lport, 1, 0) })
	eng.At(sim.Time(2*time.Millisecond), func() { sendMFLOWData(eng, h, k.Cfg.Addr, lport, 3, 2) })
	eng.At(sim.Time(3*time.Millisecond), func() { sendMFLOWData(eng, h, k.Cfg.Addr, lport, 2, 1) })
	eng.RunUntil(sim.Time(200 * time.Millisecond))
	st, ok := mflow.StatsOf(p, "MFLOW")
	if !ok {
		t.Fatal("no MFLOW stats")
	}
	if st.Delivered != 3 {
		t.Fatalf("delivered %d of 3 packets: the late original was dropped", st.Delivered)
	}
	if st.OldDrops != 0 {
		t.Fatalf("%d OldDrops: a reordered original was mistaken for a duplicate", st.OldDrops)
	}
	if st.Gaps != 0 {
		t.Fatalf("%d gaps counted although every packet arrived", st.Gaps)
	}
	if st.Late != 1 {
		t.Fatalf("Late=%d, want exactly the one overtaken packet", st.Late)
	}
}

// A true duplicate must still be dropped (the dedup fix must not just
// disable duplicate detection).
func TestMFLOWTrueDuplicateStillDropped(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	p, lport, err := k.CreateVideoPath(&VideoAttrs{
		Source:    inet.Participants{RemoteAddr: peerAddr, RemotePort: 7000},
		FPS:       30,
		CostModel: true,
		QueueLen:  32,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(sim.Time(time.Millisecond), func() { sendMFLOWData(eng, h, k.Cfg.Addr, lport, 1, 0) })
	eng.At(sim.Time(2*time.Millisecond), func() { sendMFLOWData(eng, h, k.Cfg.Addr, lport, 2, 1) })
	eng.At(sim.Time(3*time.Millisecond), func() { sendMFLOWData(eng, h, k.Cfg.Addr, lport, 2, 1) })
	eng.RunUntil(sim.Time(200 * time.Millisecond))
	st, _ := mflow.StatsOf(p, "MFLOW")
	if st.Delivered != 2 || st.OldDrops != 1 {
		t.Fatalf("delivered=%d old=%d, want 2 delivered and the duplicate dropped", st.Delivered, st.OldDrops)
	}
}

// End-to-end (satellite: lossy-link e2e): with reliable MFLOW on the path
// and a retransmitting source, a 5%-lossy link still delivers every packet
// and every frame arrives complete — zero application-visible gaps.
func TestReliableMFLOWZeroGapsOnLossyLink(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	k.Link.InjectFaults(netdev.FaultPlan{Loss: 0.05})
	clip := tinyClip
	clip.Frames = 120
	p, lport, err := k.CreateVideoPath(&VideoAttrs{
		Source:    inet.Participants{RemoteAddr: peerAddr, RemotePort: 7000},
		FPS:       clip.FPS,
		Frames:    clip.Frames,
		CostModel: true,
		QueueLen:  32,
		Reliable:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := host.NewSource(h, host.SourceConfig{
		Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true, Seed: 5,
		Retransmit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { src.Start(k.Cfg.Addr, lport) })
	eng.RunUntil(sim.Time(30 * time.Second))
	if done, _ := src.Done(); !done {
		t.Fatalf("source stalled: sent %d/%d, acks %d", src.PacketsSent, src.NumPackets(), src.AcksReceived)
	}
	if src.Retransmits == 0 {
		t.Fatal("a 5% lossy link caused no retransmissions — the test exercised nothing")
	}
	st, _ := mflow.StatsOf(p, "MFLOW")
	if st.Gaps != 0 {
		t.Fatalf("%d gaps reached the application despite retransmission", st.Gaps)
	}
	if st.Delivered != int64(src.NumPackets()) {
		t.Fatalf("delivered %d of %d packets", st.Delivered, src.NumPackets())
	}
	complete, ok := routers.MPEGComplete(p, "MPEG")
	if !ok || complete != int64(clip.Frames) {
		t.Fatalf("only %d/%d frames complete", complete, clip.Frames)
	}
}

// Regression (satellite: ARP retry): a host whose ARP request is lost must
// re-broadcast instead of stranding every queued send forever.
func TestHostARPRetriesAfterLostRequest(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	h.ARPTimeout = 50 * time.Millisecond
	dropped := 0
	k.Link.InjectFaults(netdev.FaultPlan{
		Loss: 1.0,
		Match: func(src, dst netdev.MAC, etherType uint16) bool {
			if etherType == inet.EtherTypeARP && dropped == 0 {
				dropped++
				return true
			}
			return false
		},
	})
	resolvedAt := sim.Time(-1)
	eng.At(0, func() {
		h.Resolve(k.Cfg.Addr, func(mac netdev.MAC) { resolvedAt = eng.Now() })
	})
	eng.RunUntil(sim.Time(time.Second))
	if dropped != 1 {
		t.Fatalf("fault plan dropped %d ARP frames, want the first request", dropped)
	}
	if resolvedAt < 0 {
		t.Fatal("resolution never completed: the lost request was not retried")
	}
	if resolvedAt < sim.Time(50*time.Millisecond) {
		t.Fatalf("resolved at %v, before the retry timeout", resolvedAt)
	}
}

// Scout's own resolver must back off exponentially: requests at 0, T, 3T,
// failure surfaced at 7T. Pre-fix it re-broadcast on a fixed period.
func TestARPResolverBacksOffExponentially(t *testing.T) {
	eng, k, _ := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	const T = 100 * time.Millisecond
	k.ARP.RequestTimeout = T
	k.ARP.Retries = 3
	failedAt := sim.Time(-1)
	eng.At(0, func() {
		k.ARP.Resolve(inet.IP(10, 0, 0, 99), func(mac netdev.MAC, ok bool) {
			if !ok {
				failedAt = eng.Now()
			}
		})
	})
	expect := func(at time.Duration, want int64) {
		eng.At(sim.Time(at), func() {
			if got, _ := k.ARP.Stats(); got != want {
				t.Errorf("%v: %d requests sent, want %d", at, got, want)
			}
		})
	}
	expect(50*time.Millisecond, 1)  // first request at 0
	expect(150*time.Millisecond, 2) // retry after T
	expect(250*time.Millisecond, 2) // fixed-period retry at 2T would show here
	expect(350*time.Millisecond, 3) // retry after a further 2T
	eng.RunUntil(sim.Time(time.Second))
	if failedAt != sim.Time(700*time.Millisecond) {
		t.Fatalf("failure surfaced at %v, want 7T=700ms (timeouts T, 2T, 4T)", failedAt)
	}
}

// sendFragments hand-builds IP fragments of one datagram and puts them on
// the wire (no final fragment unless last is true).
func sendFragments(h *host.Host, dst inet.Addr, id uint16, offs []int, size int, last bool) {
	h.Resolve(dst, func(mac netdev.MAC) {
		for i, off := range offs {
			pkt := make([]byte, ip.HeaderLen+size)
			ih := ip.Header{
				TotalLen: uint16(len(pkt)),
				ID:       id,
				MF:       !(last && i == len(offs)-1),
				FragOff:  off,
				TTL:      64,
				Proto:    inet.ProtoUDP,
				Src:      h.Addr,
				Dst:      dst,
			}
			ih.Put(pkt[:ip.HeaderLen])
			h.SendFrame(mac, inet.EtherTypeIP, pkt)
		}
	})
}

// Regression (satellite: ip reasm): exact-duplicate fragments — retransmitted
// or link-duplicated — must be dropped, not buffered again.
func TestReassemblyDropsDuplicateFragments(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	testR, _ := k.Graph.Router("TEST")
	eng.At(0, func() {
		if _, err := k.Graph.CreatePath(testR, attrsFor(peerAddr, 7200, 7201)); err != nil {
			t.Errorf("create: %v", err)
		}
	})
	// Duplicate every frame on the wire: each fragment arrives twice.
	eng.At(sim.Time(time.Millisecond), func() {
		k.Link.InjectFaults(netdev.FaultPlan{Dup: 1.0})
	})
	eng.At(sim.Time(5*time.Millisecond), func() {
		sendFragmentedUDP(h, k.Cfg.Addr, 7201, 7200, 3000)
	})
	eng.RunUntil(sim.Time(time.Second))
	st := k.IP.Stats()
	if st.Reassembled != 1 {
		t.Fatalf("reassembled %d datagrams, want 1", st.Reassembled)
	}
	if st.ReasmDupDrops == 0 {
		t.Fatal("no duplicate fragments dropped although every frame was duplicated")
	}
	if k.Test.Received != 1 || k.Test.Bytes != 3000 {
		t.Fatalf("TEST received %d msgs / %d bytes, want 1/3000", k.Test.Received, k.Test.Bytes)
	}
}

// Regression (satellite: ip reasm): a fragment stream that never completes
// must hit the per-entry piece cap and be evicted, not grow until timeout.
func TestReassemblyEvictsOversizedEntry(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	k.IP.ReasmMaxPieces = 4
	eng.At(sim.Time(time.Millisecond), func() {
		// Six distinct fragments, none final: the entry can never complete.
		sendFragments(h, k.Cfg.Addr, 778, []int{0, 1024, 2048, 3072, 4096, 5120}, 1024, false)
	})
	eng.RunUntil(sim.Time(time.Second))
	st := k.IP.Stats()
	if st.ReasmOverflows != 1 {
		t.Fatalf("ReasmOverflows=%d, want the oversized entry evicted once", st.ReasmOverflows)
	}
}

// sendSpoofedMFLOWData hand-builds one MFLOW data packet that claims to come
// from addr:7000 and sends it straight to the kernel's MAC. No ARP exchange
// precedes it, so the kernel learns nothing about where addr lives.
func sendSpoofedMFLOWData(eng *sim.Engine, h *host.Host, k *Kernel, addr inet.Addr, dstPort uint16, seq uint32) {
	alf := mpeg.TracePackets(seq-1, mpeg.FrameInfo{Kind: mpeg.FrameP, Bits: 800}, 4, 3, 0)[0].Marshal()
	dg := make([]byte, udp.HeaderLen+mflow.HeaderLen+len(alf))
	udp.Header{SrcPort: 7000, DstPort: dstPort, Length: uint16(len(dg))}.Put(dg)
	mflow.Header{Kind: mflow.KindData, Seq: seq, TS: int64(eng.Now())}.Put(dg[udp.HeaderLen:])
	copy(dg[udp.HeaderLen+mflow.HeaderLen:], alf)
	ck := inet.ChecksumPseudo(addr, k.Cfg.Addr, inet.ProtoUDP, dg)
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(dg[6:8], ck)
	pkt := make([]byte, ip.HeaderLen+len(dg))
	ip.Header{TotalLen: uint16(len(pkt)), ID: uint16(seq), TTL: 64, Proto: inet.ProtoUDP, Src: addr, Dst: k.Cfg.Addr}.Put(pkt)
	copy(pkt[ip.HeaderLen:], dg)
	h.SendFrame(k.Cfg.MAC, inet.EtherTypeIP, pkt)
}

// Regression: an ack refused by IP — pending queue full while ARP resolves,
// then next hop unresolvable once ARP gives up — is freed by IP alone. MFLOW
// used to free it a second time and panic with "msg: double free".
func TestAckRefusedByIPIsFreedOnce(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	ghost := inet.IP(10, 0, 0, 99) // nobody answers ARP for it
	p, lport, err := k.CreateVideoPath(&VideoAttrs{
		Source:    inet.Participants{RemoteAddr: ghost, RemotePort: 7000},
		FPS:       30,
		CostModel: true,
		QueueLen:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	limit := k.IP.PendingLimit
	const early, late = 20, 5
	for seq := uint32(1); seq <= early; seq++ {
		eng.At(sim.Time(time.Duration(seq)*time.Millisecond), func() { sendSpoofedMFLOWData(eng, h, k, ghost, lport, seq) })
	}
	eng.RunUntil(sim.Time(time.Minute)) // long enough for ARP to give up
	for seq := uint32(early + 1); seq <= early+late; seq++ {
		eng.At(eng.Now().Add(time.Duration(seq)*time.Millisecond), func() { sendSpoofedMFLOWData(eng, h, k, ghost, lport, seq) })
	}
	eng.RunFor(time.Second)
	st, ok := mflow.StatsOf(p, "MFLOW")
	if !ok {
		t.Fatal("no MFLOW stats")
	}
	if st.Delivered != early+late {
		t.Fatalf("delivered %d of %d packets", st.Delivered, early+late)
	}
	if st.AcksSent <= int64(limit)+late {
		t.Fatalf("only %d acks sent: the ARP pending queue (limit %d) never overflowed", st.AcksSent, limit)
	}
}
