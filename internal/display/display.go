// Package display simulates the framebuffer device at the top of the MPEG
// router graph (Figure 9). Decoded frames sit in a path output queue; the
// device drains each stream's queue in response to the vertical
// synchronization impulse, because "there is no point in updating the
// display at a higher frequency" (§4.1). The device also does the paper's
// deadline bookkeeping: a stream that has no frame ready when one is due has
// missed that frame's deadline (§4.3).
package display

import (
	"fmt"
	"time"

	"scout/internal/core"
	"scout/internal/sched"
	"scout/internal/sim"
)

// Frame is what a decode path deposits in its output queue: an index plus
// the dithered pixel data (RGB332, one byte per pixel).
type Frame struct {
	Seq    int // frame number within the stream
	W, H   int
	Pixels []byte   // dithered output, len == W*H (may be nil in cost-model runs)
	Bits   int      // encoded size, for the admission model (§4.4)
	Due    sim.Time // informational: when the stream wanted it on screen
}

// Sink is one video stream's connection to the framebuffer: the path output
// queue it drains and the rate at which frames fall due.
type Sink struct {
	Name   string
	Queue  *core.Queue
	Period time.Duration // per-frame interval (1/rate)

	// WaitFirst delays the deadline clock until the stream has primed, as
	// a real player does: deadlines are not missed while the pipeline
	// fills.
	WaitFirst bool
	// Prime is the buffer depth (frames) that ends priming; values < 1
	// behave as 1.
	Prime int

	// OnDrain, when non-nil, runs after the device removes a frame,
	// making room in the output queue; decode paths wake on it.
	OnDrain func()

	nextDue   sim.Time
	started   bool
	displayed int64
	missed    int64
	lateSkips int64
	done      bool
	total     int // expected frames; 0 = unbounded
}

// Displayed reports frames put on screen.
func (s *Sink) Displayed() int64 { return s.displayed }

// Missed reports deadlines at which no frame was ready.
func (s *Sink) Missed() int64 { return s.missed }

// Done reports whether the sink displayed or missed all expected frames.
func (s *Sink) Done() bool { return s.done }

// LateSkips reports frames that arrived after the stream's display slots
// were exhausted; they can never be shown and are drained on vsync.
func (s *Sink) LateSkips() int64 { return s.lateSkips }

// NextDue reports the display time of the next frame the stream owes the
// screen; the EDF deadline computation of §4.3 is built on it.
func (s *Sink) NextDue() sim.Time { return s.nextDue }

// Device is the simulated framebuffer.
type Device struct {
	W, H      int
	RefreshHz int

	eng   *sim.Engine
	cpu   *sched.Sched
	sinks []*Sink
	tick  *sim.Ticker
	drain func() // d.serviceAll, bound once so a vsync allocates nothing

	// VsyncIRQCost is charged per vsync interrupt.
	VsyncIRQCost time.Duration

	vsyncs int64
	fb     []byte
}

// New creates a framebuffer of w×h pixels refreshing at hz, draining sink
// queues from vsync interrupt context on cpu (cpu may be nil for tests).
func New(eng *sim.Engine, cpu *sched.Sched, w, h, hz int) *Device {
	if hz <= 0 {
		panic("display: refresh rate must be positive")
	}
	d := &Device{W: w, H: h, RefreshHz: hz, eng: eng, cpu: cpu, fb: make([]byte, w*h)}
	d.drain = d.serviceAll
	period := time.Duration(int64(time.Second) / int64(hz))
	d.tick = eng.Tick(period, d.vsync)
	return d
}

// Attach registers a stream. period is the frame interval the stream is
// being played at; total is the expected frame count (0 for unbounded). The
// first frame falls due one period after attach.
//
//scout:assert a non-positive period is a stream-setup bug, not runtime input
func (d *Device) Attach(name string, q *core.Queue, period time.Duration, total int) *Sink {
	if period <= 0 {
		panic("display: sink period must be positive")
	}
	s := &Sink{Name: name, Queue: q, Period: period, total: total}
	s.nextDue = d.eng.Now().Add(period)
	s.started = true
	d.sinks = append(d.sinks, s)
	return s
}

// Detach removes a sink.
func (d *Device) Detach(s *Sink) {
	for i, x := range d.sinks {
		if x == s {
			d.sinks = append(d.sinks[:i], d.sinks[i+1:]...)
			return
		}
	}
}

// Stop halts the vsync ticker (ends the simulation's display activity).
func (d *Device) Stop() { d.tick.Stop() }

// Vsyncs reports how many refresh impulses have occurred.
func (d *Device) Vsyncs() int64 { return d.vsyncs }

// vsync is the display refresh interrupt: drain at most one due frame per
// sink.
func (d *Device) vsync() {
	d.vsyncs++
	if d.cpu != nil {
		d.cpu.Interrupt(d.VsyncIRQCost, d.drain)
	} else {
		d.serviceAll()
	}
}

func (d *Device) serviceAll() {
	now := d.eng.Now()
	for _, s := range d.sinks {
		d.service(s, now)
	}
}

func (d *Device) service(s *Sink, now sim.Time) {
	// Catch up on every deadline that has passed since the last vsync;
	// each due slot either displays a queued frame or is missed.
	prime := s.Prime
	if prime < 1 {
		prime = 1
	}
	for !s.done && now >= s.nextDue {
		if s.WaitFirst && s.displayed == 0 && s.Queue.Len() < prime {
			// Still priming: slide the deadline clock.
			s.nextDue = s.nextDue.Add(s.Period)
			continue
		}
		item := s.Queue.Dequeue()
		if item == nil {
			s.missed++
		} else {
			f := item.(*Frame)
			d.blit(f)
			s.displayed++
			if s.OnDrain != nil {
				s.OnDrain()
			}
		}
		s.nextDue = s.nextDue.Add(s.Period)
		if s.total > 0 && s.displayed+s.missed >= int64(s.total) {
			s.done = true
		}
	}
	// A done sink must keep draining: frames that straggle in after the
	// stream's display slots are exhausted can never be shown, but leaving
	// them queued wedges the decode stage on a full output queue (OnDrain
	// would never fire again) and the path could never flush or be torn
	// down.
	for s.done && s.Queue.Len() > 0 {
		if s.Queue.Dequeue() == nil {
			break
		}
		s.lateSkips++
		if s.OnDrain != nil {
			s.OnDrain()
		}
	}
}

func (d *Device) blit(f *Frame) {
	if f.Pixels == nil {
		return
	}
	n := len(f.Pixels)
	if n > len(d.fb) {
		n = len(d.fb)
	}
	copy(d.fb[:n], f.Pixels[:n])
}

// Framebuffer exposes the current contents (for example programs that want
// to render or checksum what was "shown").
func (d *Device) Framebuffer() []byte { return d.fb }

func (s *Sink) String() string {
	return fmt.Sprintf("sink(%s displayed=%d missed=%d)", s.Name, s.displayed, s.missed)
}
