package host

import (
	"fmt"
	"time"

	"scout/internal/mpeg"
	"scout/internal/proto/inet"
	"scout/internal/proto/mflow"
	"scout/internal/sim"
)

// SourceConfig parameterizes an MPEG video source.
type SourceConfig struct {
	Clip    mpeg.ClipSpec
	SrcPort uint16

	// CostOnly sends trace packets (valid ALF headers, synthetic payload
	// bytes sized from the clip trace) instead of really encoded video.
	CostOnly bool
	// QScale and SearchRange configure the real encoder.
	QScale, SearchRange int

	// MaxRate ignores the clip frame rate and sends as fast as flow
	// control allows — how Table 1's "maximum decoding rate" is driven.
	MaxRate bool
	// FPS overrides the clip's native rate for paced sending (0 = native).
	FPS int

	// InitialWindow is the flow-control credit assumed before the first
	// advertisement arrives (default 16 packets).
	InitialWindow uint32

	// Retransmit enables sender-side retransmission (mflow.Sender):
	// unacknowledged packets are buffered and re-sent on timeout
	// (exponential backoff, mflow.MaxTries cap) or after three duplicate
	// cumulative acks.
	Retransmit bool

	// PayloadBudget bounds ALF packet payloads (default: MTU-fitting).
	PayloadBudget int
	// Seed makes the trace deterministic.
	Seed int64

	// Backpressure makes the sender honour shrinking window advertisements
	// (latest advertisement wins) instead of the historical raise-only rule,
	// so a degraded receiver can throttle the source (§4.4). Off by default:
	// raise-only is what the recorded E9/Table 1 runs used.
	Backpressure bool

	// Live models a live capture source: packets are paced at the frame
	// rate regardless of the advertised window — a camera cannot pause.
	// Advertisements still update RTT. Under receiver overload a live
	// stream forces the choice E11 measures: shed load deliberately
	// (frame-kind early discard) or tail-drop indiscriminately.
	Live bool

	// Prepared, when set, supplies the packet stream directly and skips
	// preparation; Clip/CostOnly/PayloadBudget/Seed are ignored. The scale
	// experiments share one PrepareClip result across 10^5 sources — the
	// templates are immutable (sendPacket copies each into a fresh frame), so
	// sharing is safe even across cluster shards.
	Prepared *Prepared
}

// Prepared is a clip's marshalled ALF packet stream, built once and shared
// by any number of sources.
type Prepared struct {
	packets [][]byte
	frameOf []int
}

// PrepareClip builds the cost-model packet stream for clip exactly as a
// CostOnly NewSource would.
func PrepareClip(clip mpeg.ClipSpec, payloadBudget int, seed int64) *Prepared {
	p := &Prepared{}
	mbw, mbh := clip.W/16, clip.H/16
	for fno, info := range clip.Trace(seed) {
		for _, pk := range mpeg.TracePackets(uint32(fno), info, mbw, mbh, payloadBudget) {
			p.packets = append(p.packets, pk.Marshal())
			p.frameOf = append(p.frameOf, fno)
		}
	}
	return p
}

// Source streams one clip to a Scout MPEG path, honouring MFLOW's window
// advertisements and measuring RTT from echoed timestamps (§4.2). The
// transport decisions (window, RTT, what to re-send or give up on, when the
// RTO fires) are its mflow.Sender's; the Source owns what is the host's:
// the prepared packets, pacing, probes, subflows and transmission.
type Source struct {
	h   *Host
	cfg SourceConfig

	// Subflow i sends from subs[i].h/subs[i].port; subflow 0, the only one
	// of a single-path source, is the Source's own host and SrcPort.
	// Dispatch picks the subflow per packet; when nil, subflow 0 is used.
	subs []subflow

	// Dispatch, when set, picks the subflow for each outbound packet —
	// typically an mpath.PathSet's Dispatch. It runs once per transmission
	// (including retransmissions, retx=true) at sender dispatch time.
	Dispatch func(seq uint32, retx bool) int
	// OnSubAck observes each cumulatively acknowledged packet with the
	// subflow it last rode; OnSubLoss observes each loss signal (fast
	// retransmit or RTO) the same way. Both feed subpath quality tracking.
	OnSubAck  func(sub int)
	OnSubLoss func(sub int)

	dst     inet.Addr
	dstPort uint16

	// packets[seq-1] is the marshalled ALF packet MFLOW numbers seq, so the
	// sender's sequence number doubles as the send cursor; frameOf maps it
	// to its frame.
	packets [][]byte
	frameOf []int
	// snd tags each unacked packet with the subflow of its latest
	// transmission, for OnSubAck and OnSubLoss.
	snd     mflow.Sender
	started sim.Time
	// waitEv is the source's one wait event, re-armed with Reset: a pacing
	// wake-up, or a window probe when waitProbe is set.
	waitEv    *sim.Event
	waitProbe bool
	// rtoEv is the one RTO event, re-armed with Reset to snd's deadline.
	rtoEv *sim.Event

	done   bool
	doneAt sim.Time

	AcksReceived    int64
	PacketsSent     int64
	Probes          int64 // window probes sent while blocked (Backpressure)
	Retransmits     int64
	FastRetransmits int64
	RTOs            int64
	Abandoned       int64
}

// subflow is one sender endpoint of a multipath source.
type subflow struct {
	h    *Host
	port uint16
}

// NewSource prepares the clip data. Real-mode encoding happens here, once.
func NewSource(h *Host, cfg SourceConfig) (*Source, error) {
	if cfg.SrcPort == 0 {
		return nil, fmt.Errorf("host: source needs a SrcPort")
	}
	if cfg.InitialWindow == 0 {
		cfg.InitialWindow = 16
	}
	s := &Source{h: h, cfg: cfg, subs: []subflow{{h: h, port: cfg.SrcPort}},
		snd: mflow.NewSender(cfg.InitialWindow, cfg.Retransmit, cfg.Backpressure)}
	clip := cfg.Clip
	p := cfg.Prepared
	if p == nil && cfg.CostOnly {
		p = PrepareClip(clip, cfg.PayloadBudget, cfg.Seed)
	}
	if p != nil {
		s.packets, s.frameOf = p.packets, p.frameOf
	} else {
		qs := cfg.QScale
		if qs == 0 {
			qs = 3
		}
		sr := cfg.SearchRange
		if sr == 0 {
			sr = 4
		}
		enc, err := mpeg.NewEncoder(mpeg.EncoderConfig{
			W: clip.W, H: clip.H, GOP: clip.GOP, QScale: qs,
			SearchRange: sr, PayloadBudget: cfg.PayloadBudget,
		})
		if err != nil {
			return nil, err
		}
		scene := mpeg.NewScene(clip.Scene)
		for fno := 0; fno < clip.Frames; fno++ {
			pkts, _ := enc.Encode(scene.Frame(fno))
			for _, p := range pkts {
				s.packets = append(s.packets, p.Marshal())
				s.frameOf = append(s.frameOf, fno)
			}
		}
	}
	return s, nil
}

// NumPackets reports how many packets the source will send.
func (s *Source) NumPackets() int { return len(s.packets) }

// NumFrames reports how many frames the prepared stream has.
func (s *Source) NumFrames() int {
	if len(s.frameOf) == 0 {
		return 0
	}
	return s.frameOf[len(s.frameOf)-1] + 1
}

// Done reports whether every packet has been sent, and when.
func (s *Source) Done() (bool, sim.Time) { return s.done, s.doneAt }

// AddSubflow registers one more sender endpoint for multipath striping and
// returns its subflow index. Each subflow's acks return to its own port, so
// the handlers installed by Start cover every endpoint; call before Start.
func (s *Source) AddSubflow(h *Host, srcPort uint16) int {
	s.subs = append(s.subs, subflow{h: h, port: srcPort})
	return len(s.subs) - 1
}

// Start begins streaming to the Scout host's video port.
func (s *Source) Start(dst inet.Addr, dstPort uint16) {
	s.dst = dst
	s.dstPort = dstPort
	s.started = s.h.eng.Now()
	for _, sf := range s.subs {
		sf.h.OnUDP(sf.port, s.onAck)
	}
	s.trySend()
}

// RTT reports the smoothed round-trip time measured from echoed timestamps.
func (s *Source) RTT() time.Duration { return s.snd.SRTT() }

// onAck processes an MFLOW window advertisement.
func (s *Source) onAck(src inet.Participants, payload []byte) {
	h, err := mflow.Parse(payload)
	if err != nil || h.Kind != mflow.KindAck {
		return
	}
	s.AcksReceived++
	acked, resend := s.snd.Ack(h, s.h.eng.Now())
	if len(acked) > 0 {
		if s.OnSubAck != nil {
			for _, u := range acked {
				s.OnSubAck(u.Tag)
			}
		}
		s.syncRTO()
	}
	if resend != nil {
		s.FastRetransmits++
		if s.OnSubLoss != nil {
			s.OnSubLoss(resend.Tag)
		}
		s.resend(resend)
	}
	s.trySend()
}

// resend re-sends one unacknowledged packet with a fresh timestamp; the
// dispatch policy may move it to a different subflow than the original.
func (s *Source) resend(u *mflow.Unacked) {
	s.Retransmits++
	u.Tag = s.sendPacket(u.Seq, true)
}

// RedispatchUnacked re-sends every unacknowledged packet immediately, in
// sequence order — the sender half of a path failover. When the dispatch
// policy retires a subflow (its wire died), everything the dead wire may
// have swallowed is re-driven through the policy at once, instead of
// trickling out one RTO at a time; recovering N packets serially at RTOMin
// each would lose the race against the receiver's hold timeout. Duplicates
// of packets that did arrive are discarded by the receiver's seq filter.
func (s *Source) RedispatchUnacked() {
	unacked := s.snd.Redispatch(s.h.eng.Now())
	for i := range unacked {
		s.resend(&unacked[i])
	}
	s.syncRTO()
}

// onRTO fires the retransmission timeout. The loss is reported before the
// sender backs off, so a failover the report triggers (RedispatchUnacked)
// happens first and the expired packet's re-send follows it.
func (s *Source) onRTO() {
	unacked := s.snd.Unacked()
	if len(unacked) == 0 {
		return
	}
	s.RTOs++
	if s.OnSubLoss != nil {
		s.OnSubLoss(unacked[0].Tag)
	}
	u, abandoned := s.snd.Timeout(s.h.eng.Now())
	if abandoned {
		s.Abandoned++
	} else {
		s.resend(u)
	}
	s.syncRTO()
}

// syncRTO moves the one RTO event to the sender's deadline, or disarms it.
// Reset keeps the event's place among simultaneous events exactly where a
// fresh After would have put it.
func (s *Source) syncRTO() {
	at, armed := s.snd.Deadline()
	switch {
	case !armed:
		if s.rtoEv != nil {
			s.rtoEv.Cancel()
		}
	case s.rtoEv == nil:
		s.rtoEv = s.h.eng.At(at, s.onRTO)
	default:
		s.h.eng.Reset(s.rtoEv, at)
	}
}

// sendPacket wraps prepared packet seq in an MFLOW data header (fresh
// timestamp), asks the dispatch policy which subflow carries it, and ships
// it to the Scout host. Returns the subflow used.
func (s *Source) sendPacket(seq uint32, retx bool) int {
	sub := 0
	if s.Dispatch != nil {
		sub = s.Dispatch(seq, retx)
	}
	if sub < 0 || sub >= len(s.subs) {
		sub = 0
	}
	alf := s.packets[seq-1]
	m := newTx(mflow.HeaderLen + len(alf))
	b := m.Bytes()
	mflow.Header{Kind: mflow.KindData, Seq: seq, TS: int64(s.h.eng.Now())}.Put(b[:mflow.HeaderLen])
	copy(b[mflow.HeaderLen:], alf)
	sf := s.subs[sub]
	sf.h.sendUDP(s.dst, s.dstPort, sf.port, m)
	s.PacketsSent++
	return sub
}

// trySend transmits every packet the window (and pacing) currently allows.
func (s *Source) trySend() {
	if s.done {
		return
	}
	fps := s.cfg.FPS
	if fps == 0 {
		fps = s.cfg.Clip.FPS
	}
	for int(s.snd.Seq()) < len(s.packets) && (s.cfg.Live || s.snd.CanSend()) {
		seq := s.snd.Seq() + 1
		if !s.cfg.MaxRate {
			due := s.started.Add(time.Duration(s.frameOf[seq-1]) * time.Second / time.Duration(fps))
			now := s.h.eng.Now()
			if now < due {
				s.armWait(due, false)
				return
			}
		}
		sub := s.sendPacket(seq, false)
		if s.snd.Sent(s.h.eng.Now(), sub) {
			s.syncRTO()
		}
	}
	if int(s.snd.Seq()) == len(s.packets) {
		s.done = true
		s.doneAt = s.h.eng.Now()
		return
	}
	if s.cfg.Backpressure && !s.snd.CanSend() {
		// Window closed under backpressure. The receiver acks only on
		// arrivals, so a fully blocked sender must probe (TCP's persist
		// timer): re-send the last packet as a duplicate. If the receiver
		// has room, the duplicate is discarded as old but still acked with
		// the current window and the stream resumes; if its queue is full,
		// the probe tail-drops and nothing of value is lost. Shed runs
		// don't stall the probe loop: early-discarded packets still
		// advance the advertised window (mflow.NoteShed).
		s.armWait(s.h.eng.Now().Add(mflow.RTOMin), true)
	}
}

// armWait (re)schedules the wait event at t; Reset makes re-arming a
// pending wait the same as canceling it and scheduling a new one.
func (s *Source) armWait(t sim.Time, probe bool) {
	s.waitProbe = probe
	if s.waitEv == nil {
		s.waitEv = s.h.eng.At(t, s.onWait)
		return
	}
	s.h.eng.Reset(s.waitEv, t)
}

func (s *Source) onWait() {
	if !s.waitProbe {
		s.trySend()
		return
	}
	if s.done {
		return
	}
	if seq := s.snd.Seq(); !s.snd.CanSend() && seq > 0 {
		s.Probes++
		s.sendPacket(seq, true)
	}
	s.trySend() // re-arms the probe while still blocked
}
