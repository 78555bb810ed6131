package mflow

import (
	"encoding/binary"
	"testing"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/fbuf"
	"scout/internal/msg"
	"scout/internal/sim"
)

// edge is a path end for the receiver rig: TOP above MFLOW records and frees
// what MFLOW delivers upward, BOT below it records and frees the acks MFLOW
// turns around, and passes injected data up.
type edge struct {
	services []core.ServiceSpec
	up       func(m *msg.Msg) // TOP: data delivered upward
	back     func(m *msg.Msg) // BOT: acks turned around
}

func (e *edge) Services() []core.ServiceSpec { return e.services }
func (e *edge) Init(r *core.Router) error    { return nil }
func (e *edge) Demux(r *core.Router, enter int, m *msg.Msg) (*core.Path, error) {
	return nil, core.ErrNoPath
}

func (e *edge) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	s := &core.Stage{}
	if e.up != nil {
		s.SetIface(core.BWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
			e.up(m)
			m.Free()
			return nil
		}))
		down, err := r.Link("down")
		if err != nil {
			return nil, nil, err
		}
		return s, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
	}
	s.SetIface(core.FWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		e.back(m)
		m.Free()
		return nil
	}))
	s.SetIface(core.BWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return i.DeliverNext(m)
	}))
	return s, nil, nil
}

// rig is a TOP–MFLOW–BOT graph whose paths carry MFLOW data injected at BOT
// in messages drawn from one fbuf pool, so every buffer is accounted for.
type rig struct {
	t    *testing.T
	eng  *sim.Engine
	impl *Impl
	g    *core.Graph
	top  *core.Router
	pool *fbuf.Pool
	up   []uint32 // payload seq tags delivered upward, in order
	acks []Header // acks turned around at BOT
}

const rigPayload = 300

func newRig(t *testing.T) *rig {
	rg := &rig{t: t, eng: sim.New(1), pool: fbuf.NewPool(rigPayload, 0, 0, 0), g: core.NewGraph()}
	rg.impl = New(rg.eng)
	g := rg.g
	rg.top = g.Add("TOP", &edge{
		services: []core.ServiceSpec{{Name: "down", Type: core.NetServiceType, InitAfterPeers: true}},
		up: func(m *msg.Msg) {
			if b := m.Bytes(); len(b) >= 4 {
				rg.up = append(rg.up, binary.BigEndian.Uint32(b))
			}
		},
	})
	mf := g.Add("MFLOW", rg.impl)
	bot := g.Add("BOT", &edge{
		services: []core.ServiceSpec{{Name: "up", Type: core.NetServiceType}},
		back: func(m *msg.Msg) {
			if h, err := Parse(m.Bytes()); err == nil {
				rg.acks = append(rg.acks, h)
			}
		},
	})
	g.MustConnect(rg.top, "down", mf, "up")
	g.MustConnect(mf, "down", bot, "up")
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	return rg
}

func (rg *rig) path(reliable bool) *core.Path {
	p, err := rg.g.CreatePath(rg.top, attr.New().Set(AttrReliable, reliable))
	if err != nil {
		rg.t.Fatal(err)
	}
	return p
}

// inject delivers raw bytes into p at BOT, in a pool-backed message.
func (rg *rig) inject(p *core.Path, b []byte) {
	m, err := rg.pool.Get(len(b))
	if err != nil {
		rg.t.Fatal(err)
	}
	copy(m.Bytes(), b)
	_ = p.Inject(core.BWD, m) // errors free m; the pool audit checks that
}

// data injects an MFLOW data packet whose payload carries seq as a tag.
func (rg *rig) data(p *core.Path, seq uint32) {
	var b [HeaderLen + 4]byte
	Header{Kind: KindData, Seq: seq, TS: int64(rg.eng.Now())}.Put(b[:])
	binary.BigEndian.PutUint32(b[HeaderLen:], seq)
	rg.inject(p, b[:])
}

func (rg *rig) wantUp(want ...uint32) {
	rg.t.Helper()
	if len(rg.up) != len(want) {
		rg.t.Fatalf("delivered %v, want %v", rg.up, want)
	}
	for i := range want {
		if rg.up[i] != want[i] {
			rg.t.Fatalf("delivered %v, want %v", rg.up, want)
		}
	}
}

func (rg *rig) stats(p *core.Path) Stats {
	s, ok := StatsOf(p, "MFLOW")
	if !ok {
		rg.t.Fatal("no MFLOW stats")
	}
	return s
}

// auditPool checks that every buffer the rig handed out came back once.
func auditPool(t *testing.T, name string, p *fbuf.Pool) {
	t.Helper()
	st := p.Stats()
	if st.Outstanding != 0 || st.Created != st.Free || st.Releases != st.Hits+st.Misses {
		t.Fatalf("%s pool leaked or double-freed: %+v", name, st)
	}
}

func TestHoldTimeoutFlushesOnlyOldestHole(t *testing.T) {
	rg := newRig(t)
	p := rg.path(true)
	rg.data(p, 1)
	rg.data(p, 3)
	rg.data(p, 5) // holes at 2 and 4
	rg.eng.RunFor(holdTimeout + time.Millisecond)
	rg.wantUp(1, 3) // only hole 2 given up on; 5 still waits for 4
	if s := rg.stats(p); s.HoldFlushes != 1 || s.Gaps != 1 {
		t.Fatalf("after one hold timeout: %+v, want 1 flush and 1 gap", s)
	}
	rg.data(p, 4) // the second hole is repaired before its own timeout
	rg.wantUp(1, 3, 4, 5)
	rg.eng.RunFor(2 * holdTimeout)
	if s := rg.stats(p); s.HoldFlushes != 1 || s.Gaps != 1 || s.Delivered != 4 {
		t.Fatalf("after repair: %+v, want no further flush", s)
	}
	p.Destroy()
	auditPool(t, "msg", rg.pool)
}

func TestFlushHeldOnOverflow(t *testing.T) {
	rg := newRig(t)
	p := rg.path(true)
	rg.data(p, 1)
	want := []uint32{1}
	for seq := uint32(3); seq <= 3+recentWindow; seq++ {
		rg.data(p, seq) // hole at 2: everything is held until it overflows
		want = append(want, seq)
	}
	rg.wantUp(want...)
	if s := rg.stats(p); s.HoldFlushes != 1 || s.Gaps != 1 {
		t.Fatalf("after overflow: %+v, want 1 flush and 1 gap", s)
	}
	if last := rg.acks[len(rg.acks)-1]; last.Seq != 3+recentWindow {
		t.Fatalf("ack after flush carries cum %d, want %d", last.Seq, 3+recentWindow)
	}
	p.Destroy()
	auditPool(t, "msg", rg.pool)
}

func TestTeardownFreesHeldInSequenceOrder(t *testing.T) {
	rg := newRig(t)
	p := rg.path(true)
	rg.data(p, 1)
	for _, seq := range []uint32{5, 3, 4} {
		rg.data(p, seq) // held behind hole 2
	}
	rg.wantUp(1)
	if st := rg.pool.Stats(); st.Outstanding != 3 {
		t.Fatalf("%d buffers outstanding with 3 held", st.Outstanding)
	}
	p.Destroy()
	auditPool(t, "msg", rg.pool)
	// The pool's free list is LIFO: the buffer freed last comes back first.
	// Buffers are reused dirty, so each still carries its old seq tag.
	for _, want := range []uint32{5, 4, 3} {
		m, err := rg.pool.Get(HeaderLen + 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint32(m.Bytes()[HeaderLen:]); got != want {
			t.Fatalf("pool returned seq %d's buffer, want %d: teardown freed out of order", got, want)
		}
	}
	rg.eng.RunFor(2 * holdTimeout)
	if s := rg.stats(p); s.HoldFlushes != 0 {
		t.Fatal("hold timer fired after teardown")
	}
}

func TestNoteShedReliableFillsHole(t *testing.T) {
	rg := newRig(t)
	p := rg.path(true)
	rg.data(p, 1)
	rg.data(p, 3)
	if !NoteShed(p, "MFLOW", 2) {
		t.Fatal("NoteShed found no MFLOW stage")
	}
	rg.wantUp(1, 3) // the shed seq counts as seen: 3 is released at once
	if last := rg.acks[len(rg.acks)-1]; last.Seq != 3 {
		t.Fatalf("ack after shed carries cum %d, want 3", last.Seq)
	}
	if s := rg.stats(p); s.Gaps != 0 || s.HoldFlushes != 0 {
		t.Fatalf("shed seq counted as loss: %+v", s)
	}
	if NoteShed(p, "NOPE", 4) {
		t.Fatal("NoteShed accepted a router with no stage on the path")
	}
	p.Destroy()
	auditPool(t, "msg", rg.pool)
}

func TestAckArrivingAtApplianceFreedOnce(t *testing.T) {
	rg := newRig(t)
	p := rg.path(true)
	var b [HeaderLen]byte
	Header{Kind: KindAck, Seq: 9, Win: 40, TS: 1}.Put(b[:])
	rg.inject(p, b[:])
	if st := rg.pool.Stats(); st.Releases != 1 {
		t.Fatalf("ack released %d times, want once", st.Releases)
	}
	auditPool(t, "msg", rg.pool)
	if len(rg.up) != 0 || len(rg.acks) != 0 || rg.stats(p) != (Stats{}) {
		t.Fatalf("ack had effects: up %v, acks %v, stats %+v", rg.up, rg.acks, rg.stats(p))
	}
}

func TestReadvertise(t *testing.T) {
	rg := newRig(t)
	p := rg.path(false)
	rg.data(p, 1)
	n := len(rg.acks)
	if !rg.impl.Readvertise(p, "MFLOW") || len(rg.acks) != n+1 {
		t.Fatal("live path did not readvertise")
	}
	if a := rg.acks[n]; a.Kind != KindAck || a.Seq != 1 {
		t.Fatalf("readvertisement %+v, want cum 1", a)
	}
	if rg.impl.Readvertise(nil, "MFLOW") || rg.impl.Readvertise(p, "NOPE") {
		t.Fatal("readvertised without a path or stage")
	}
	p.Destroy()
	if rg.impl.Readvertise(p, "MFLOW") || len(rg.acks) != n+1 {
		t.Fatal("dead path readvertised")
	}
	auditPool(t, "msg", rg.pool)
}

// FuzzInput feeds arbitrary bytes to a reliable and an unreliable MFLOW
// stage: it must never panic, and every message (data, acks, runts, held
// packets) must be freed exactly once by the time the paths are destroyed.
// The input is a sequence of records, each a length byte and that many bytes.
func FuzzInput(f *testing.F) {
	hdr := func(kind uint8, seq uint32) []byte {
		var b [HeaderLen + 3]byte
		b[0] = HeaderLen + 2
		Header{Kind: kind, Seq: seq, TS: 5}.Put(b[1:])
		return b[:]
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add(cat(hdr(KindData, 1), hdr(KindData, 3), hdr(KindData, 2)))
	f.Add(cat(hdr(KindData, 300), hdr(KindAck, 1), hdr(KindData, 298), hdr(KindData, 300)))
	f.Add([]byte{3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		rg := newRig(t)
		paths := []*core.Path{rg.path(true), rg.path(false)}
		for len(in) > 0 {
			n := min(int(in[0]), len(in)-1, rigPayload)
			for _, p := range paths {
				rg.inject(p, in[1:1+n])
			}
			in = in[1+n:]
		}
		rg.eng.RunFor(3 * holdTimeout)
		for _, p := range paths {
			p.Destroy()
		}
		auditPool(t, "msg", rg.pool)
		auditPool(t, "ack", rg.impl.ackPool)
	})
}
