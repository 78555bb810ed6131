// Package sim provides the discrete-event simulation engine that the Scout
// reproduction runs on: a virtual clock, an event queue, and a deterministic
// random source.
//
// The paper's scheduling experiments (Tables 1-2 and the EDF-vs-RR study)
// depend on relative CPU costs and queueing structure, not on wall-clock
// behaviour of a 1996 Alpha. Running the kernel on a virtual clock makes
// every experiment deterministic and repeatable while preserving the
// structural properties the paper measures. Wall-clock microbenchmarks
// (path creation, demux) bypass this package entirely and use testing.B.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, expressed in nanoseconds since boot.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since boot.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since boot.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// Never is a sentinel meaning "no deadline"; it sorts after every real time.
const Never Time = 1<<63 - 1

// Event is a scheduled callback. It is returned by At/After so callers can
// cancel it before it fires.
type Event struct {
	when     Time
	seq      uint64
	fn       func()
	eng      *Engine
	index    int // heap index, -1 if not queued
	canceled bool
}

// When reports the virtual time at which the event will fire.
func (ev *Event) When() Time { return ev.when }

// Scheduled reports whether ev is queued to fire: armed, and neither fired
// nor canceled since. A nil event is not scheduled, so an owner that creates
// its event lazily can ask before the first arm.
func (ev *Event) Scheduled() bool { return ev != nil && ev.index >= 0 && !ev.canceled }

// Cancel prevents the event from firing. Canceling an event that already
// fired or was already canceled is a no-op. Canceled events stay queued and
// are discarded lazily; the engine compacts the heap when they outnumber the
// runnable events, so mass cancellation (path teardown at scale) cannot pin
// memory or inflate Pending.
func (ev *Event) Cancel() {
	if ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 && ev.eng != nil {
		ev.eng.canceled++
		ev.eng.maybeCompact()
	}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// New. Engines are not safe for concurrent use: the whole simulated kernel
// is single-threaded, exactly like Scout's non-preemptive core.
type Engine struct {
	now      Time
	events   eventHeap
	seq      uint64
	seed     int64
	rng      *rand.Rand
	stopped  bool
	canceled int    // queued events already canceled, awaiting lazy discard
	ran      uint64 // events executed, for wall-clock rate accounting

	// Set when the engine is one shard of a Cluster: the shard may then only
	// be driven through the cluster's windowed run loop.
	cluster *Cluster
	shard   int
	outbox  []xmsg // cross-shard messages posted this window, drained at barriers
}

// New returns an engine with its clock at 0 and a deterministic random
// source derived from seed.
func New(seed int64) *Engine {
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Seed reports the seed the engine was created with, so subsystems can
// derive decorrelated per-object random streams from it.
func (e *Engine) Seed() int64 { return e.seed }

// DeriveRand returns an independent deterministic random source for stream
// id, derived from the engine seed. Distinct ids give uncorrelated streams,
// and no id reproduces the engine's own source (the fixed-point scramble
// keeps id 0 from collapsing to the raw seed). Draws from a derived stream
// do not perturb the engine's main source, so two objects with their own
// streams stay independent no matter how their draws interleave.
func (e *Engine) DeriveRand(id int64) *rand.Rand {
	const scramble = -0x61c8864680b583eb // 2^64 / golden ratio, as int64
	return rand.New(rand.NewSource(e.seed ^ (id+1)*scramble))
}

// At schedules fn to run at virtual time t. Scheduling in the past (or at
// the present) runs the event at the current time, after already-pending
// events for that time.
//
//scout:assert a nil event func would crash the loop later with the cause lost; fail at the scheduling site
func (e *Engine) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: At with nil func")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &Event{when: t, seq: e.seq, fn: fn, eng: e, index: -1}
	heap.Push(&e.events, ev)
	return ev
}

// Reset re-queues ev to fire at time t with a fresh sequence number, reusing
// its allocation and callback. ev may be pending, canceled (queued or
// discarded) or already fired; in every case it then pops exactly where a
// new event from At(t, fn) would have, so Reset is Cancel followed by At
// without the garbage. Only the event's owner may Reset it: a caller that
// was handed the *Event to Cancel must not revive it.
//
//scout:assert an event re-armed on a foreign engine would corrupt both heaps; fail at the owner's call site
func (e *Engine) Reset(ev *Event, t Time) {
	if ev.eng != e {
		panic("sim: Reset of another engine's event")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.when, ev.seq = t, e.seq
	if ev.index < 0 {
		ev.canceled = false
		heap.Push(&e.events, ev)
		return
	}
	if ev.canceled {
		ev.canceled = false
		e.canceled--
	}
	heap.Fix(&e.events, ev.index)
}

// After schedules fn to run d from now. Negative d behaves like d == 0.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	return e.At(e.now.Add(d), fn)
}

// Pending reports the number of runnable (not canceled) events queued.
func (e *Engine) Pending() int { return len(e.events) - e.canceled }

// EventsRun reports how many events the engine has executed since creation;
// the scale experiments divide it by wall time for an events/sec rate.
func (e *Engine) EventsRun() uint64 { return e.ran }

// maybeCompact rebuilds the heap without its canceled entries once they
// outnumber the runnable ones, so cancellation storms stay O(live) in space.
func (e *Engine) maybeCompact() {
	const minCompact = 16 // below this the lazy discard in Step is cheaper
	if len(e.events) < minCompact || e.canceled*2 <= len(e.events) {
		return
	}
	kept := e.events[:0]
	for _, ev := range e.events {
		if ev.canceled {
			ev.index = -1
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(e.events); i++ {
		e.events[i] = nil // release the dropped entries to the GC
	}
	e.events = kept
	for i, ev := range e.events {
		ev.index = i
	}
	heap.Init(&e.events)
	e.canceled = 0
}

// Step runs the next event. It reports false when no runnable event remains.
func (e *Engine) Step() bool {
	e.mustBeUnclustered("Step")
	return e.step()
}

func (e *Engine) step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*Event)
		if ev.canceled {
			e.canceled--
			continue
		}
		if ev.when < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", e.now, ev.when))
		}
		e.now = ev.when
		e.ran++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.mustBeUnclustered("Run")
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with firing times <= t, then advances the clock
// to t. Events scheduled beyond t remain queued. If Stop fires mid-run the
// clock stays where the last event left it, so unreached events (those with
// firing times between the stop point and t) remain runnable on resume.
func (e *Engine) RunUntil(t Time) {
	e.mustBeUnclustered("RunUntil")
	e.runUntil(t)
}

func (e *Engine) runUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		ev := e.peek()
		if ev == nil || ev.when > t {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor is RunUntil(Now().Add(d)).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Stop makes the innermost Run/RunUntil return after the current event. On a
// clustered shard it also stops the cluster's windowed loop: the other shards
// finish the current window (their events are independent up to the barrier)
// and Cluster.RunUntil returns.
func (e *Engine) Stop() {
	e.stopped = true
	if e.cluster != nil {
		e.cluster.stopped.Store(true)
	}
}

// mustBeUnclustered rejects direct stepping of a cluster shard: running a
// shard outside the cluster's conservative windows would let its clock pass a
// barrier before cross-shard messages for that window were delivered.
//
//scout:assert driving a shard around its cluster is a harness bug, not runtime input
func (e *Engine) mustBeUnclustered(op string) {
	if e.cluster != nil {
		panic("sim: " + op + " on a cluster shard; drive the Cluster instead")
	}
}

func (e *Engine) peek() *Event {
	for len(e.events) > 0 {
		if ev := e.events[0]; !ev.canceled {
			return ev
		}
		heap.Pop(&e.events)
		e.canceled--
	}
	return nil
}

// Ticker fires a callback periodically until stopped.
type Ticker struct {
	e      *Engine
	period time.Duration
	fn     func()
	ev     *Event
	stop   bool
}

// Tick schedules fn every period, first firing one period from now.
// It panics if period <= 0.
func (e *Engine) Tick(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Tick with non-positive period")
	}
	t := &Ticker{e: e, period: period, fn: fn}
	// One closure and one Event for the ticker's whole life: tick Resets the
	// same entry, so a display vsync at 10^5 paths costs no steady-state
	// allocation.
	t.ev = e.After(period, t.tick)
	return t
}

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn()
	if !t.stop {
		t.e.Reset(t.ev, t.e.now.Add(t.period))
	}
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.stop = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}
