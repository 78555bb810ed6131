package display

import (
	"testing"
	"time"

	"scout/internal/core"
	"scout/internal/sched"
	"scout/internal/sim"
)

func frame(seq int) *Frame { return &Frame{Seq: seq, W: 2, H: 2, Pixels: []byte{1, 2, 3, 4}} }

func TestDisplaysQueuedFramesAtRate(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, nil, 320, 240, 60)
	q := core.NewQueue(16)
	s := d.Attach("v", q, time.Second/30, 10)
	for i := 0; i < 10; i++ {
		q.Enqueue(frame(i))
	}
	eng.RunUntil(sim.Time(time.Second))
	if s.Displayed() != 10 || s.Missed() != 0 {
		t.Fatalf("displayed=%d missed=%d", s.Displayed(), s.Missed())
	}
	if !s.Done() {
		t.Fatal("sink not done after all frames")
	}
}

func TestMissWhenQueueEmpty(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, nil, 320, 240, 60)
	q := core.NewQueue(16)
	s := d.Attach("v", q, time.Second/30, 5)
	// Only 2 frames ever arrive.
	q.Enqueue(frame(0))
	q.Enqueue(frame(1))
	eng.RunUntil(sim.Time(time.Second))
	if s.Displayed() != 2 || s.Missed() != 3 {
		t.Fatalf("displayed=%d missed=%d, want 2/3", s.Displayed(), s.Missed())
	}
}

func TestLateFrameArrivalDisplaysNextSlot(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, nil, 320, 240, 30)
	q := core.NewQueue(16)
	s := d.Attach("v", q, time.Second/30, 2)
	// First frame misses its ~33ms deadline; both frames arrive at 40ms.
	eng.At(sim.Time(40*time.Millisecond), func() {
		q.Enqueue(frame(0))
		q.Enqueue(frame(1))
	})
	eng.RunUntil(sim.Time(200 * time.Millisecond))
	if s.Missed() != 1 || s.Displayed() != 1 {
		t.Fatalf("displayed=%d missed=%d, want 1/1", s.Displayed(), s.Missed())
	}
}

func TestOnDrainWakes(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, nil, 320, 240, 60)
	q := core.NewQueue(4)
	s := d.Attach("v", q, time.Second/60, 4)
	drains := 0
	s.OnDrain = func() { drains++ }
	for i := 0; i < 4; i++ {
		q.Enqueue(frame(i))
	}
	eng.RunUntil(sim.Time(time.Second))
	if drains != 4 {
		t.Fatalf("drains = %d, want 4", drains)
	}
}

func TestVsyncsCount(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, nil, 64, 64, 30)
	eng.RunUntil(sim.Time(time.Second))
	if d.Vsyncs() != 30 {
		t.Fatalf("vsyncs = %d, want 30", d.Vsyncs())
	}
}

func TestSlowStreamOnFastDisplay(t *testing.T) {
	// 10 fps stream on a 60 Hz display: each frame is picked up at the
	// first vsync after it falls due; no misses if frames are present.
	eng := sim.New(1)
	d := New(eng, nil, 64, 64, 60)
	q := core.NewQueue(32)
	s := d.Attach("v", q, time.Second/10, 10)
	for i := 0; i < 10; i++ {
		q.Enqueue(frame(i))
	}
	eng.RunUntil(sim.Time(2 * time.Second))
	if s.Displayed() != 10 || s.Missed() != 0 {
		t.Fatalf("displayed=%d missed=%d", s.Displayed(), s.Missed())
	}
}

func TestBlitWritesFramebuffer(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, nil, 2, 2, 60)
	q := core.NewQueue(4)
	d.Attach("v", q, time.Second/60, 1)
	q.Enqueue(&Frame{Seq: 0, W: 2, H: 2, Pixels: []byte{9, 8, 7, 6}})
	eng.RunUntil(sim.Time(100 * time.Millisecond))
	fb := d.Framebuffer()
	if fb[0] != 9 || fb[3] != 6 {
		t.Fatalf("framebuffer = %v", fb)
	}
}

func TestDetach(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, nil, 64, 64, 60)
	q := core.NewQueue(4)
	s := d.Attach("v", q, time.Second/30, 0)
	d.Detach(s)
	q.Enqueue(frame(0))
	eng.RunUntil(sim.Time(time.Second))
	if s.Displayed() != 0 {
		t.Fatal("detached sink serviced")
	}
}

func TestMultipleSinksIndependent(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, nil, 64, 64, 60)
	q1, q2 := core.NewQueue(64), core.NewQueue(64)
	s1 := d.Attach("a", q1, time.Second/30, 30)
	s2 := d.Attach("b", q2, time.Second/10, 10)
	for i := 0; i < 30; i++ {
		q1.Enqueue(frame(i))
	}
	for i := 0; i < 10; i++ {
		q2.Enqueue(frame(i))
	}
	eng.RunUntil(sim.Time(2 * time.Second))
	if s1.Displayed() != 30 || s2.Displayed() != 10 || s1.Missed()+s2.Missed() != 0 {
		t.Fatalf("s1=%v s2=%v", s1, s2)
	}
}

func TestDoneSinkKeepsDraining(t *testing.T) {
	// Frames that straggle in after the stream's display slots are exhausted
	// must still be drained (with OnDrain fired), or the decode stage wedges
	// forever on a full output queue — the path could never flush.
	eng := sim.New(1)
	d := New(eng, nil, 320, 240, 60)
	q := core.NewQueue(4)
	s := d.Attach("v", q, time.Second/30, 3)
	drains := 0
	s.OnDrain = func() { drains++ }
	eng.RunUntil(sim.Time(200 * time.Millisecond)) // all 3 slots miss
	if !s.Done() || s.Missed() != 3 {
		t.Fatalf("done=%v missed=%d, want done with 3 misses", s.Done(), s.Missed())
	}
	// Late frames arrive after done.
	q.Enqueue(frame(0))
	q.Enqueue(frame(1))
	eng.RunUntil(sim.Time(400 * time.Millisecond))
	if q.Len() != 0 {
		t.Fatalf("done sink left %d frames queued", q.Len())
	}
	if s.LateSkips() != 2 {
		t.Fatalf("LateSkips = %d, want 2", s.LateSkips())
	}
	if drains != 2 {
		t.Fatalf("OnDrain fired %d times, want 2 (producer must wake)", drains)
	}
	if s.Displayed() != 0 || s.Missed() != 3 {
		t.Fatalf("late drain changed the score: displayed=%d missed=%d", s.Displayed(), s.Missed())
	}
}

func TestVsyncAllocatesNothing(t *testing.T) {
	eng := sim.New(1)
	cpu := sched.New(eng)
	d := New(eng, cpu, 64, 48, 60)
	d.VsyncIRQCost = 5 * time.Microsecond
	d.Attach("v", core.NewQueue(4), time.Second/30, 0)
	period := time.Second / 60
	eng.RunFor(2 * period)
	if allocs := testing.AllocsPerRun(100, func() { eng.RunFor(period) }); allocs > 0 {
		t.Fatalf("a vsync tick allocates %.1f objects, want 0", allocs)
	}
	if d.Vsyncs() < 100 {
		t.Fatalf("only %d vsyncs ran", d.Vsyncs())
	}
}
