package host

import (
	"testing"
	"time"

	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
	"scout/internal/proto/mflow"
	"scout/internal/sim"
)

func twoHosts(t *testing.T) (*sim.Engine, *Host, *Host) {
	t.Helper()
	eng := sim.New(1)
	link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 10_000_000, Delay: 50 * time.Microsecond})
	a := New(link, netdev.MAC{2, 0, 0, 0, 0, 1}, inet.IP(10, 0, 0, 1))
	b := New(link, netdev.MAC{2, 0, 0, 0, 0, 2}, inet.IP(10, 0, 0, 2))
	return eng, a, b
}

func TestHostUDPRoundTrip(t *testing.T) {
	eng, a, b := twoHosts(t)
	var got []byte
	var from inet.Participants
	b.OnUDP(9000, func(src inet.Participants, payload []byte) {
		got, from = payload, src
	})
	eng.At(0, func() { a.SendUDP(b.Addr, 9000, 9001, []byte("ping")) })
	eng.RunFor(time.Second)
	if string(got) != "ping" {
		t.Fatalf("received %q", got)
	}
	if from.RemoteAddr != a.Addr || from.RemotePort != 9001 {
		t.Fatalf("source %v", from)
	}
}

func TestHostARPResolution(t *testing.T) {
	eng, a, b := twoHosts(t)
	var mac netdev.MAC
	eng.At(0, func() { a.Resolve(b.Addr, func(m netdev.MAC) { mac = m }) })
	eng.RunFor(time.Second)
	if mac != b.Dev.Addr {
		t.Fatalf("resolved %v, want %v", mac, b.Dev.Addr)
	}
}

func TestHostEchoExchange(t *testing.T) {
	eng, a, b := twoHosts(t)
	_ = b // b auto-replies to echo requests
	eng.At(0, func() { a.SendEcho(b.Addr, 1, 1, 56) })
	eng.RunFor(time.Second)
	if a.EchoReplies != 1 {
		t.Fatalf("replies = %d", a.EchoReplies)
	}
}

func TestAdaptiveFloodThrottlesWithoutReplies(t *testing.T) {
	eng := sim.New(1)
	link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 10_000_000})
	a := New(link, netdev.MAC{2, 0, 0, 0, 0, 1}, inet.IP(10, 0, 0, 1))
	// Target that never answers (dead host on the wire).
	netdev.NewDevice(link, netdev.MAC{2, 0, 0, 0, 0, 9}, nil)
	f := a.FloodEchoAdaptive(inet.IP(10, 0, 0, 9), 1, 8, 0)
	eng.RunFor(2 * time.Second)
	// Without replies the loop falls back to the 100 pps floor. (ARP for
	// a dead host never resolves either, so echoes queue — the send rate
	// is what matters.)
	rate := f.Rate()
	if rate > 150 {
		t.Fatalf("flood at %.0f pps without replies; ping -f floors at 100", rate)
	}
}

func TestAdaptiveFloodEscalatesWithReplies(t *testing.T) {
	eng, a, b := twoHosts(t)
	_ = b
	f := a.FloodEchoAdaptive(b.Addr, 1, 8, 0)
	eng.RunFor(2 * time.Second)
	if f.Rate() < 1000 {
		t.Fatalf("closed loop against an instant responder only reached %.0f pps", f.Rate())
	}
	f.Stop()
}

func TestSourceTracePacketization(t *testing.T) {
	eng := sim.New(1)
	link := netdev.NewLink(eng, netdev.LinkConfig{})
	h := New(link, netdev.MAC{2, 0, 0, 0, 0, 1}, inet.IP(10, 0, 0, 1))
	clip := mpeg.ClipSpec{Name: "T", Frames: 10, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 20000, Jitter: 0}
	s, err := NewSource(h, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFrames() != 10 {
		t.Fatalf("frames = %d", s.NumFrames())
	}
	// 20kbit ≈ 2500B → 2 packets per P frame, more for I frames.
	if s.NumPackets() < 20 {
		t.Fatalf("packets = %d, want ≥ 2 per frame", s.NumPackets())
	}
}

func TestSourceRequiresPort(t *testing.T) {
	eng := sim.New(1)
	link := netdev.NewLink(eng, netdev.LinkConfig{})
	h := New(link, netdev.MAC{2, 0, 0, 0, 0, 1}, inet.IP(10, 0, 0, 1))
	if _, err := NewSource(h, SourceConfig{Clip: mpeg.Canyon}); err == nil {
		t.Fatal("source without SrcPort accepted")
	}
	_ = eng
}

func TestSourceRespectsInitialWindow(t *testing.T) {
	eng, a, b := twoHosts(t)
	_ = b // no MFLOW receiver: no acks ever
	clip := mpeg.ClipSpec{Name: "T", Frames: 100, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 8000, Jitter: 0}
	s, err := NewSource(a, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true, InitialWindow: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { s.Start(b.Addr, 8000) })
	eng.RunFor(2 * time.Second)
	if s.PacketsSent != 5 {
		t.Fatalf("sent %d packets with window 5 and no acks", s.PacketsSent)
	}
}

func TestSourceLiveIgnoresWindow(t *testing.T) {
	// A live capture source is paced by the frame clock, not the window:
	// with no receiver (no acks ever) it must still send the whole stream.
	eng, a, b := twoHosts(t)
	_ = b
	clip := mpeg.ClipSpec{Name: "T", Frames: 30, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 8000, Jitter: 0}
	s, err := NewSource(a, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, InitialWindow: 5, Live: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { s.Start(b.Addr, 8000) })
	eng.RunFor(3 * time.Second)
	if done, _ := s.Done(); !done {
		t.Fatalf("live source stalled: sent %d/%d", s.PacketsSent, s.NumPackets())
	}
	if s.PacketsSent != int64(s.NumPackets()) {
		t.Fatalf("sent %d, want all %d despite closed window", s.PacketsSent, s.NumPackets())
	}
}

func TestSourceBackpressureProbesWhenBlocked(t *testing.T) {
	// A blocked backpressure sender must probe (TCP persist): re-send the
	// last packet as a duplicate so a silent receiver can re-advertise.
	eng, a, b := twoHosts(t)
	_ = b // no MFLOW receiver: the window never opens
	clip := mpeg.ClipSpec{Name: "T", Frames: 30, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 8000, Jitter: 0}
	s, err := NewSource(a, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true,
		InitialWindow: 5, Backpressure: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { s.Start(b.Addr, 8000) })
	eng.RunFor(time.Second)
	if s.Probes < 10 {
		t.Fatalf("probes = %d over 1s of blockage, want ~1 per RTOMin (50ms)", s.Probes)
	}
	// Probes are duplicates of the last packet, not new data.
	if new := s.PacketsSent - s.Probes; new != 5 {
		t.Fatalf("new packets = %d, want the 5-packet window", new)
	}
	if done, _ := s.Done(); done {
		t.Fatal("blocked source claims done")
	}
}

func TestSourceBackpressureAckClamp(t *testing.T) {
	eng, a, b := twoHosts(t)
	_ = b
	clip := mpeg.ClipSpec{Name: "T", Frames: 30, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 8000, Jitter: 0}
	s, err := NewSource(a, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true,
		InitialWindow: 5, Backpressure: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { s.Start(b.Addr, 8000) })
	eng.RunFor(100 * time.Millisecond) // 5 packets out, blocked
	ack := func(win uint32) {
		var pl [mflow.HeaderLen]byte
		mflow.Header{Kind: mflow.KindAck, Seq: s.snd.Seq(), Win: win}.Put(pl[:])
		s.onAck(inet.Participants{}, pl[:])
	}
	// A shrinking advertisement takes effect (latest wins) but never drops
	// below what was already sent — in-flight packets cannot be recalled.
	ack(2)
	if s.snd.Window() != 5 {
		t.Fatalf("win = %d after shrink below sent, want clamp to seq (5)", s.snd.Window())
	}
	ack(8)
	if s.snd.Window() != 8 {
		t.Fatalf("win = %d after re-open, want 8", s.snd.Window())
	}
	eng.RunFor(10 * time.Millisecond)
	if s.snd.Seq() != 8 {
		t.Fatalf("seq = %d after window re-opened to 8, want 8 sent", s.snd.Seq())
	}
}

func TestFailoverFromRTOKeepsOneTimerChain(t *testing.T) {
	// A failover triggered by the first RTO re-drives the unacked buffer
	// from inside the timeout handler. The retransmission timer must stay
	// one event: with no receiver, the RTOs over a silent interval follow
	// a single backoff chain (RTOMin, doubling, capped at RTOMax).
	eng, a, b := twoHosts(t)
	_ = b // no MFLOW receiver: no acks ever
	clip := mpeg.ClipSpec{Name: "T", Frames: 30, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 8000, Jitter: 0}
	s, err := NewSource(a, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true,
		InitialWindow: 5, Retransmit: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.AddSubflow(a, 7001)
	active, failovers := 0, 0
	s.Dispatch = func(seq uint32, retx bool) int { return active }
	s.OnSubLoss = func(sub int) {
		if active == 0 {
			active = 1
			failovers++
			s.RedispatchUnacked()
		}
	}
	eng.At(0, func() { s.Start(b.Addr, 8000) })
	eng.RunFor(mflow.RTOMin + 10*time.Millisecond) // first RTO fired, re-sends drained
	if s.RTOs != 1 || failovers != 1 {
		t.Fatalf("RTOs = %d, failovers = %d after the first timeout, want 1 and 1", s.RTOs, failovers)
	}
	if n := eng.Pending(); n != 1 {
		t.Fatalf("%d events pending after the failover, want the one RTO", n)
	}

	const silent = 3 * time.Second
	eng.RunUntil(sim.Time(silent))
	want, at, rto := 0, sim.Time(0), mflow.RTOMin
	for at.Add(rto) <= sim.Time(silent) {
		at = at.Add(rto)
		want++
		rto = min(2*rto, mflow.RTOMax)
	}
	if s.RTOs != int64(want) {
		t.Fatalf("RTOs = %d over %v of silence, want %d from one backoff chain", s.RTOs, silent, want)
	}
}
