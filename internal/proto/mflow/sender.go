package mflow

import (
	"time"

	"scout/internal/sim"
)

// Retransmission constants of the reliable sender. Recovery ordering: fast
// retransmit (a few packet times) beats the RTO backstop, which beats the
// receiver's hold flush, so a hole is almost always repaired before anything
// is given up on. The RTO floor sits above the ack jitter a decode-bound
// receiver produces (acks turn around after ~20ms of frame decode), or every
// stall would look like a loss.
const (
	RTOMin   = 50 * time.Millisecond
	RTOMax   = 500 * time.Millisecond
	MaxTries = 8 // transmissions per packet before the sender gives up
)

// Unacked is one sent-but-unacknowledged data packet in a Sender's buffer.
type Unacked struct {
	Seq   uint32
	Tries int // transmissions so far
	// Tag is the caller's annotation; host.Source keeps the subflow of the
	// packet's latest transmission here and updates it on every re-send.
	Tag int
}

// Sender is MFLOW's sending half as a pure state machine: the window, the
// RTT estimate, the unacknowledged buffer and the retransmission policy,
// with no engine, no messages and no callbacks. Its inputs are the
// transmissions the caller made, the acks it received and the timeouts its
// one RTO timer fired; its outputs are what to re-send or abandon and the
// deadline that timer must be re-armed to. Every method that can move the
// deadline reports it, and the caller then re-arms to Deadline (or disarms).
//
// Without retransmission the Sender only tracks the window and the RTT; the
// unacked buffer stays empty and no deadline is ever armed.
type Sender struct {
	retransmit   bool
	backpressure bool

	win  uint32 // highest sequence number the receiver accepts
	seq  uint32 // highest sequence number sent
	srtt time.Duration

	// buf[head:] is the unacked list, oldest first. Trimming advances head;
	// Sent compacts before growing, so the steady state never allocates.
	buf  []Unacked
	head int

	lastAck uint32
	dupAcks int
	frSeq   uint32 // highest seq fast-retransmitted: one per hole
	shift   uint   // RTO doublings since the last progress
	rtoAt   sim.Time
	armed   bool
}

// NewSender returns a sender that may send up to initialWindow before the
// first advertisement arrives. retransmit buffers unacked packets for
// re-sending; backpressure makes the latest advertisement win (clamped to
// what was already sent) instead of the raise-only rule.
func NewSender(initialWindow uint32, retransmit, backpressure bool) Sender {
	return Sender{win: initialWindow, retransmit: retransmit, backpressure: backpressure}
}

// Window reports the advertised window: the highest sequence number the
// receiver accepts.
func (s *Sender) Window() uint32 { return s.win }

// Seq reports the highest sequence number sent; the next is Seq()+1.
func (s *Sender) Seq() uint32 { return s.seq }

// CanSend reports whether the window admits sequence number Seq()+1.
func (s *Sender) CanSend() bool { return s.seq < s.win }

// SRTT reports the smoothed round-trip time (zero before the first sample).
func (s *Sender) SRTT() time.Duration { return s.srtt }

// Unacked returns the unacknowledged packets, oldest first. The slice
// aliases the sender's buffer and is valid until the next Sent.
func (s *Sender) Unacked() []Unacked { return s.buf[s.head:] }

// Deadline reports when the retransmission timer must fire, if it is armed.
func (s *Sender) Deadline() (sim.Time, bool) { return s.rtoAt, s.armed }

// Sent records the transmission of sequence number Seq()+1 at now, tagged
// tag. It reports whether the RTO deadline moved: the first packet
// outstanding arms the timer.
func (s *Sender) Sent(now sim.Time, tag int) bool {
	s.seq++
	if !s.retransmit {
		return false
	}
	if len(s.buf) == cap(s.buf) && s.head > 0 {
		n := copy(s.buf, s.buf[s.head:])
		s.buf, s.head = s.buf[:n], 0
	}
	s.buf = append(s.buf, Unacked{Seq: s.seq, Tries: 1, Tag: tag})
	if s.armed {
		return false
	}
	s.rearm(now)
	return true
}

// Ack applies an acknowledgment received at now: the window advertisement,
// the echoed timestamp's RTT sample, then cumulative trimming and duplicate
// ack counting. acked lists the packets the cumulative ack covered, oldest
// first; it aliases the sender's buffer until the next Sent, and when it is
// not empty the RTO deadline moved. resend, when set, is the packet after
// the cumulative ack, to re-send now (fast retransmit); its Tries already
// counts that transmission.
func (s *Sender) Ack(h Header, now sim.Time) (acked []Unacked, resend *Unacked) {
	switch {
	case !s.backpressure:
		if h.Win > s.win {
			s.win = h.Win
		}
	case h.Win >= s.seq:
		s.win = h.Win
	default:
		// In-flight packets cannot be recalled: clamping to what was sent
		// resumes exactly where the receiver re-opens the window.
		s.win = s.seq
	}
	if h.TS > 0 {
		rtt := now.Sub(sim.Time(h.TS))
		if s.srtt == 0 {
			s.srtt = rtt
		} else {
			s.srtt += (rtt - s.srtt) / 8
		}
	}
	if !s.retransmit {
		return nil, nil
	}
	from := s.head
	for s.head < len(s.buf) && s.buf[s.head].Seq <= h.Seq {
		s.head++
	}
	unacked := s.Unacked()
	switch {
	case s.head > from:
		s.shift, s.dupAcks, s.lastAck = 0, 0, h.Seq
		s.rearm(now)
		return s.buf[from:s.head], nil
	case h.Seq == s.lastAck && len(unacked) > 0:
		s.dupAcks++
		if s.dupAcks >= 3 && unacked[0].Seq > s.frSeq {
			// The packet after the cumulative ack is missing while later
			// data keeps arriving: re-send it now, not at the RTO, but only
			// once per hole. Further duplicates echo data already in
			// flight, and a lost re-send falls back to the RTO.
			s.frSeq = unacked[0].Seq
			unacked[0].Tries++
			return nil, &unacked[0]
		}
	default:
		s.lastAck, s.dupAcks = h.Seq, 0
	}
	return nil, nil
}

// Timeout fires the RTO at now. The oldest unacked packet is abandoned once
// it has been sent MaxTries times; otherwise it is returned for re-sending
// and the timeout doubles. The deadline always moves: re-armed while packets
// remain, disarmed otherwise. Timeout with nothing outstanding returns nil.
func (s *Sender) Timeout(now sim.Time) (u *Unacked, abandoned bool) {
	if unacked := s.Unacked(); len(unacked) > 0 {
		u = &unacked[0]
		if u.Tries >= MaxTries {
			s.head++
			abandoned = true
		} else {
			u.Tries++
			s.shift++
		}
	}
	s.rearm(now)
	return u, abandoned
}

// Redispatch marks every unacked packet for re-sending now, in sequence
// order, and restarts the backoff: the sender half of a path failover,
// whose fresh transmissions ride a fresh path. The returned slice aliases
// the sender's buffer; the deadline always moves.
func (s *Sender) Redispatch(now sim.Time) []Unacked {
	unacked := s.Unacked()
	for i := range unacked {
		unacked[i].Tries++
	}
	s.shift = 0
	s.rearm(now)
	return unacked
}

// rto is twice the smoothed RTT, clamped to [RTOMin, RTOMax], doubled per
// back-to-back timeout. The doubling stops at the ceiling: a long outage
// accumulates dozens of shifts, and a plain shift would overflow into a
// zero or negative timeout and a retransmission storm.
func (s *Sender) rto() time.Duration {
	rto := max(2*s.srtt, RTOMin)
	for i := uint(0); i < s.shift && rto < RTOMax; i++ {
		rto <<= 1
	}
	return min(rto, RTOMax)
}

// rearm arms the deadline while packets are outstanding and disarms it
// otherwise.
func (s *Sender) rearm(now sim.Time) {
	s.armed = s.head < len(s.buf)
	s.rtoAt = now.Add(s.rto())
}
