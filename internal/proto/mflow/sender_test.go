package mflow

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"

	"scout/internal/sim"
)

// refReceiver is the reference cumulative-ack receiver the Sender is checked
// against: it delivers in sequence order, holds out-of-order arrivals, and
// gives up on the oldest hole after holdTimeout (as the appliance's reliable
// stage does), acknowledging every arrival with its cumulative watermark and
// a window of cum+room.
type refReceiver struct {
	room      uint32
	cum       uint32
	held      map[uint32]bool
	holdSince sim.Time // when cum last moved while packets are held
	delivered []uint32 // in delivery order; skipped holes never appear
}

func (r *refReceiver) arrive(seq uint32, ts int64, now sim.Time) Header {
	if seq > r.cum && !r.held[seq] {
		if len(r.held) == 0 {
			r.holdSince = now
		}
		r.held[seq] = true
		r.drain(now)
	}
	return r.ack(ts)
}

func (r *refReceiver) ack(ts int64) Header {
	return Header{Kind: KindAck, Seq: r.cum, Win: r.cum + r.room, TS: ts}
}

func (r *refReceiver) drain(now sim.Time) {
	moved := false
	for r.held[r.cum+1] {
		delete(r.held, r.cum+1)
		r.cum++
		r.delivered = append(r.delivered, r.cum)
		moved = true
	}
	if moved {
		r.holdSince = now
	}
}

// holdDeadline reports when the receiver gives up on its oldest hole.
func (r *refReceiver) holdDeadline() (sim.Time, bool) {
	return r.holdSince.Add(holdTimeout), len(r.held) > 0
}

// skipHole gives up on the oldest hole: the watermark jumps to just below
// the oldest held packet, which then drains.
func (r *refReceiver) skipHole(now sim.Time) {
	oldest := uint32(0)
	for s := range r.held {
		if oldest == 0 || s < oldest {
			oldest = s
		}
	}
	r.cum = oldest - 1
	r.drain(now)
}

// item is one packet on the wire: data toward the receiver or an ack back.
type item struct {
	at   sim.Time
	n    uint64 // FIFO among equal times
	data bool
	seq  uint32
	ts   int64
	ack  Header
}

type wire []item

func (w wire) Len() int { return len(w) }
func (w wire) Less(i, j int) bool {
	if w[i].at != w[j].at {
		return w[i].at < w[j].at
	}
	return w[i].n < w[j].n
}
func (w wire) Swap(i, j int) { w[i], w[j] = w[j], w[i] }
func (w *wire) Push(x any)   { *w = append(*w, x.(item)) }
func (w *wire) Pop() any {
	old := *w
	it := old[len(old)-1]
	*w = old[:len(old)-1]
	return it
}

// channel decides the fate of each transmission: the one-way delays of the
// copies that arrive (none: lost; two: duplicated).
type channel interface {
	data(h *harness, seq uint32) []time.Duration
	ack(h *harness, a Header) []time.Duration
}

// harness drives one Sender against a refReceiver over a channel, checking
// the transport invariants after every step.
type harness struct {
	t       *testing.T
	s       Sender
	rx      refReceiver
	ch      channel
	now     sim.Time
	w       wire
	n       uint64
	total   uint32 // sequence numbers to send
	initWin uint32
	bp      bool

	maxAdv, lastAdv uint32 // advertisements the sender has received
	anyAck          bool
	cumAck          uint32 // highest cumulative ack the sender has received
	ackedUpTo       uint32 // the sender's cumulative point, for monotonicity
	abandoned       map[uint32]bool
	maxOccupancy    int
}

func newHarness(t *testing.T, ch channel, total, initWin, room uint32, bp bool) *harness {
	return &harness{
		t: t, s: NewSender(initWin, true, bp), ch: ch, total: total, initWin: initWin, bp: bp,
		rx:        refReceiver{room: room, held: map[uint32]bool{}},
		abandoned: map[uint32]bool{},
	}
}

func (h *harness) put(d time.Duration, it item) {
	h.n++
	it.at, it.n = h.now.Add(d), h.n
	heap.Push(&h.w, it)
}

func (h *harness) transmit(seq uint32) {
	for _, d := range h.ch.data(h, seq) {
		h.put(d, item{data: true, seq: seq, ts: int64(h.now)})
	}
}

// pump sends every new packet the window admits, checking each against the
// advertisements the sender has actually received.
func (h *harness) pump() {
	for uint32(h.s.Seq()) < h.total && h.s.CanSend() {
		seq := h.s.Seq() + 1
		limit := h.initWin
		switch {
		case h.bp && h.anyAck:
			limit = h.lastAdv
		case !h.bp:
			limit = max(limit, h.maxAdv)
		}
		if seq > limit {
			h.t.Fatalf("t=%v: sent seq %d beyond the advertised window %d", h.now, seq, limit)
		}
		h.s.Sent(h.now, 0)
		h.transmit(seq)
	}
}

func (h *harness) check() {
	un := h.s.Unacked()
	acked := h.s.Seq()
	if len(un) > 0 {
		acked = un[0].Seq - 1
	}
	if acked < h.ackedUpTo {
		h.t.Fatalf("t=%v: cumulative point went back from %d to %d", h.now, h.ackedUpTo, acked)
	}
	h.ackedUpTo = acked
	if win := h.s.Window(); win < acked || uint32(len(un)) > win-acked {
		h.t.Fatalf("t=%v: %d unacked exceed window %d - cumulative %d", h.now, len(un), win, acked)
	}
	for i := 1; i < len(un); i++ {
		if un[i].Seq != un[i-1].Seq+1 {
			h.t.Fatalf("t=%v: unacked list not contiguous at %d", h.now, un[i].Seq)
		}
	}
	h.maxOccupancy = max(h.maxOccupancy, len(un))
	if _, armed := h.s.Deadline(); armed != (len(un) > 0) {
		h.t.Fatalf("t=%v: RTO armed=%v with %d unacked", h.now, armed, len(un))
	}
}

// run drives the exchange until nothing remains to happen or limit passes.
func (h *harness) run(limit sim.Time) {
	for h.now <= limit {
		h.pump()
		h.check()
		next, what := sim.Never, 0
		if len(h.w) > 0 {
			next, what = h.w[0].at, 1
		}
		if at, ok := h.s.Deadline(); ok && at < next {
			next, what = at, 2
		}
		if at, ok := h.rx.holdDeadline(); ok && at < next {
			next, what = at, 3
		}
		if what == 0 {
			return
		}
		h.now = next
		switch what {
		case 1:
			it := heap.Pop(&h.w).(item)
			if it.data {
				a := h.rx.arrive(it.seq, it.ts, h.now)
				for _, d := range h.ch.ack(h, a) {
					h.put(d, item{ack: a})
				}
				continue
			}
			h.maxAdv = max(h.maxAdv, it.ack.Win)
			h.lastAdv, h.anyAck = it.ack.Win, true
			h.cumAck = max(h.cumAck, it.ack.Seq)
			if _, resend := h.s.Ack(it.ack, h.now); resend != nil {
				h.transmit(resend.Seq)
			}
		case 2:
			u, abandoned := h.s.Timeout(h.now)
			switch {
			case u == nil:
				h.t.Fatalf("t=%v: RTO fired with nothing outstanding", h.now)
			case abandoned:
				h.abandoned[u.Seq] = true
			default:
				h.transmit(u.Seq)
			}
		case 3:
			h.rx.skipHole(h.now)
		}
	}
	h.t.Fatalf("exchange still running at %v", limit)
}

// finish checks the end state: in-order delivery, and every sequence number
// either cumulatively acknowledged or abandoned.
func (h *harness) finish() {
	for i := 1; i < len(h.rx.delivered); i++ {
		if h.rx.delivered[i] <= h.rx.delivered[i-1] {
			h.t.Fatalf("delivered %d after %d", h.rx.delivered[i], h.rx.delivered[i-1])
		}
	}
	if h.s.Seq() != h.total || len(h.s.Unacked()) != 0 {
		h.t.Fatalf("stalled: sent %d/%d, %d unacked", h.s.Seq(), h.total, len(h.s.Unacked()))
	}
	for seq := uint32(1); seq <= h.total; seq++ {
		if seq > h.cumAck && !h.abandoned[seq] {
			h.t.Fatalf("seq %d neither acked (cumulative %d) nor abandoned", seq, h.cumAck)
		}
	}
}

// randomChannel loses, duplicates, delays and (through delay jitter)
// reorders packets, with an optional blackout in which everything is lost.
type randomChannel struct {
	rng                 *rand.Rand
	loss, dup           float64
	delay, jitter       time.Duration
	blackFrom, blackTil sim.Time
}

func (c *randomChannel) fate(now sim.Time) []time.Duration {
	if (now >= c.blackFrom && now < c.blackTil) || c.rng.Float64() < c.loss {
		return nil
	}
	d := []time.Duration{c.delay + time.Duration(c.rng.Int63n(int64(c.jitter)+1))}
	if c.rng.Float64() < c.dup {
		d = append(d, c.delay+time.Duration(c.rng.Int63n(int64(c.jitter)+1)))
	}
	return d
}

func (c *randomChannel) data(h *harness, seq uint32) []time.Duration { return c.fate(h.now) }
func (c *randomChannel) ack(h *harness, a Header) []time.Duration    { return c.fate(h.now) }

func TestSenderModelRandomSchedules(t *testing.T) {
	abandonedRuns := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ch := &randomChannel{
			rng:    rng,
			loss:   rng.Float64() * 0.3,
			dup:    rng.Float64() * 0.1,
			delay:  time.Duration(1+rng.Intn(20)) * time.Millisecond,
			jitter: time.Duration(rng.Intn(30)) * time.Millisecond,
		}
		if seed%4 == 0 {
			// A blackout long enough to exhaust the head packet's tries.
			ch.blackFrom = sim.Time(time.Duration(rng.Intn(500)) * time.Millisecond)
			ch.blackTil = ch.blackFrom.Add(time.Duration(2500+rng.Intn(1000)) * time.Millisecond)
		}
		h := newHarness(t, ch, 200+uint32(rng.Intn(200)), 1+uint32(rng.Intn(32)), 1+uint32(rng.Intn(64)), seed%2 == 0)
		h.run(sim.Time(10 * time.Minute))
		h.finish()
		if len(h.abandoned) > 0 {
			abandonedRuns++
		}
	}
	// The schedules must reach the abandonment path, not only recovery.
	if abandonedRuns == 0 {
		t.Fatal("no schedule abandoned a packet; blackouts too short to test MaxTries")
	}
}

// adversary holds the receiver's hole open as long as the sender can be
// made to keep retrying it, and delivers everything else newest-first, so
// the sender's buffer fills to the window and stays there.
type adversary struct{ rng *rand.Rand }

func (a *adversary) data(h *harness, seq uint32) []time.Duration {
	un := h.s.Unacked()
	if seq == h.rx.cum+1 && len(un) > 0 && un[0].Seq == seq && un[0].Tries < MaxTries {
		return nil // keep the hole open
	}
	// Later sequence numbers overtake earlier ones: maximal reordering.
	return []time.Duration{time.Duration(1000-seq%1000) * time.Microsecond}
}

func (a *adversary) ack(h *harness, ack Header) []time.Duration {
	if ack.Seq > h.ackedUpTo && a.rng.Intn(2) == 0 {
		return nil // lose half the acks that would free buffer space
	}
	return []time.Duration{time.Millisecond}
}

func TestSenderAdversarialOccupancyBoundedByWindow(t *testing.T) {
	for _, bp := range []bool{false, true} {
		for _, room := range []uint32{4, 16, 64} {
			h := newHarness(t, &adversary{rng: rand.New(rand.NewSource(int64(room)))}, 600, room, room, bp)
			h.run(sim.Time(time.Hour)) // check() certifies len(unacked) <= win-cum at every step
			h.finish()
			if h.maxOccupancy != int(room) {
				t.Fatalf("bp=%v room=%d: adversary reached occupancy %d, want the full window", bp, room, h.maxOccupancy)
			}
		}
	}
}

func TestSenderBackoffAndAbandon(t *testing.T) {
	s := NewSender(4, true, false)
	if !s.Sent(0, 7) {
		t.Fatal("first packet did not arm the RTO")
	}
	if s.Sent(0, 7) {
		t.Fatal("second packet re-armed a pending RTO")
	}
	at, _ := s.Deadline()
	var gaps []time.Duration
	for {
		u, abandoned := s.Timeout(at)
		if abandoned {
			if u.Seq != 1 || u.Tries != MaxTries {
				t.Fatalf("abandoned seq %d after %d tries, want seq 1 after %d", u.Seq, u.Tries, MaxTries)
			}
			break
		}
		next, _ := s.Deadline()
		gaps = append(gaps, next.Sub(at))
		at = next
	}
	want := []time.Duration{100, 200, 400, 500, 500, 500, 500}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if len(gaps) != len(want) {
		t.Fatalf("backoff %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("backoff %v, want %v", gaps, want)
		}
	}
	if un := s.Unacked(); len(un) != 1 || un[0].Seq != 2 || un[0].Tag != 7 {
		t.Fatalf("after abandoning seq 1: unacked %+v, want seq 2", un)
	}
	// Progress restarts the backoff from the RTT estimate.
	acked, _ := s.Ack(Header{Kind: KindAck, Seq: 2, Win: 10, TS: int64(at - sim.Time(40*time.Millisecond))}, at)
	if len(acked) != 1 || acked[0].Seq != 2 {
		t.Fatalf("ack trimmed %+v, want seq 2", acked)
	}
	if _, armed := s.Deadline(); armed {
		t.Fatal("RTO still armed with nothing outstanding")
	}
	s.Sent(at, 0)
	if next, _ := s.Deadline(); next.Sub(at) != 80*time.Millisecond {
		t.Fatalf("RTO after progress = %v, want 2*srtt = 80ms", next.Sub(at))
	}
}

func TestSenderBackoffNeverOverflows(t *testing.T) {
	// A long outage accumulates far more doublings than a Duration holds;
	// the timeout must stay at the ceiling, not wrap to zero or below.
	s := NewSender(100, true, false)
	for i := 0; i < 100; i++ {
		s.Sent(0, 0)
	}
	now := sim.Time(0)
	for i := 0; i < 400; i++ {
		if _, armed := s.Deadline(); !armed {
			break
		}
		at, _ := s.Deadline()
		if at.Sub(now) < RTOMin || at.Sub(now) > RTOMax {
			t.Fatalf("timeout %d: RTO %v outside [%v, %v]", i, at.Sub(now), RTOMin, RTOMax)
		}
		now = at
		s.Timeout(now)
	}
}

func TestSenderFastRetransmitOncePerHole(t *testing.T) {
	s := NewSender(10, true, false)
	for i := 0; i < 6; i++ {
		s.Sent(0, i)
	}
	ack := func(cum uint32) ([]Unacked, *Unacked) { return s.Ack(Header{Kind: KindAck, Seq: cum, Win: 20}, 0) }
	ack(1) // progress: seq 2 is now the hole
	resends := 0
	for i := 0; i < 6; i++ {
		if _, u := ack(1); u != nil {
			resends++
			if u.Seq != 2 || u.Tries != 2 || u.Tag != 1 {
				t.Fatalf("fast retransmit %+v, want seq 2 on its second try", *u)
			}
		}
	}
	if resends != 1 {
		t.Fatalf("%d fast retransmits for one hole, want 1", resends)
	}
	if acked, u := ack(3); len(acked) != 2 || u != nil {
		t.Fatalf("progress ack trimmed %+v and resent %v", acked, u)
	}
}

func TestSenderRedispatchRestartsBackoff(t *testing.T) {
	s := NewSender(10, true, false)
	for i := 0; i < 3; i++ {
		s.Sent(0, 0)
	}
	s.Timeout(sim.Time(RTOMin))
	s.Timeout(sim.Time(3 * RTOMin)) // backoff now at 4*RTOMin
	now := sim.Time(7 * RTOMin)
	un := s.Redispatch(now)
	if len(un) != 3 || un[0].Tries != 4 || un[2].Tries != 2 {
		t.Fatalf("redispatch returned %+v", un)
	}
	if at, _ := s.Deadline(); at.Sub(now) != RTOMin {
		t.Fatalf("RTO after redispatch = %v, want the restarted %v", at.Sub(now), RTOMin)
	}
}

func TestSenderWindowRules(t *testing.T) {
	raise := NewSender(5, false, false)
	bp := NewSender(5, false, true)
	for _, s := range []*Sender{&raise, &bp} {
		for s.CanSend() {
			s.Sent(0, 0)
		}
		s.Ack(Header{Kind: KindAck, Seq: 1, Win: 3}, 0)
	}
	if raise.Window() != 5 {
		t.Fatalf("raise-only window = %d after a shrinking ack, want 5", raise.Window())
	}
	if bp.Window() != 5 {
		t.Fatalf("backpressure window = %d after shrinking below sent, want clamp to 5", bp.Window())
	}
	bp.Ack(Header{Kind: KindAck, Seq: 1, Win: 9}, 0)
	bp.Ack(Header{Kind: KindAck, Seq: 1, Win: 7}, 0)
	if bp.Window() != 7 || !bp.CanSend() {
		t.Fatalf("backpressure window = %d, want the latest advertisement 7", bp.Window())
	}
	if len(raise.Unacked()) != 0 {
		t.Fatal("sender without retransmission buffered packets")
	}
}

func TestSenderSteadyStateAllocatesNothing(t *testing.T) {
	s := NewSender(32, true, false)
	now := sim.Time(0)
	for i := 0; i < 16; i++ {
		s.Sent(now, 0)
	}
	step := func() {
		now = now.Add(time.Millisecond)
		s.Sent(now, 0)
		s.Ack(Header{Kind: KindAck, Seq: s.Seq() - 16, Win: s.Seq() + 16, TS: int64(now - 1000)}, now)
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady state allocates %.1f per packet+ack, want 0", allocs)
	}
}
