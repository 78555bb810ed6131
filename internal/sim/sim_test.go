package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := New(1)
	var fired Time
	e.After(5*time.Millisecond, func() { fired = e.Now() })
	e.Run()
	if fired != Time(5*time.Millisecond) {
		t.Fatalf("fired at %v, want 5ms", fired)
	}
	if e.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(time.Second), func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.After(time.Second, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.After(2*time.Second, func() { fired = true })
	e.After(1*time.Second, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	e := New(1)
	var fired Time = -1
	e.After(time.Second, func() {
		e.At(0, func() { fired = e.Now() })
	})
	e.Run()
	if fired != Time(time.Second) {
		t.Fatalf("past event fired at %v, want clamp to 1s", fired)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := New(1)
	early, late := false, false
	e.After(1*time.Second, func() { early = true })
	e.After(3*time.Second, func() { late = true })
	e.RunUntil(Time(2 * time.Second))
	if !early || late {
		t.Fatalf("early=%v late=%v, want true,false", early, late)
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
	e.Run()
	if !late {
		t.Fatal("late event lost")
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := New(1)
	at := false
	e.After(2*time.Second, func() { at = true })
	e.RunUntil(Time(2 * time.Second))
	if !at {
		t.Fatal("event at the RunUntil boundary did not fire")
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	e.Run() // resume
	if count != 10 {
		t.Fatalf("after resume count = %d, want 10", count)
	}
}

func TestTicker(t *testing.T) {
	e := New(1)
	var ticks []Time
	tk := e.Tick(10*time.Millisecond, func() {
		ticks = append(ticks, e.Now())
	})
	e.RunUntil(Time(35 * time.Millisecond))
	tk.Stop()
	e.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3 (%v)", len(ticks), ticks)
	}
	for i, tt := range ticks {
		want := Time((i + 1) * 10 * int(time.Millisecond))
		if tt != want {
			t.Fatalf("tick %d at %v, want %v", i, tt, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := New(1)
	n := 0
	var tk *Ticker
	tk = e.Tick(time.Millisecond, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 2 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 2", n)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestNeverSortsLast(t *testing.T) {
	if Never <= Time(1<<62) {
		t.Fatal("Never is not larger than practical times")
	}
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(time.Second)
	if got := base.Add(500 * time.Millisecond); got != Time(1500*time.Millisecond) {
		t.Fatalf("Add = %v", got)
	}
	if got := base.Sub(Time(200 * time.Millisecond)); got != 800*time.Millisecond {
		t.Fatalf("Sub = %v", got)
	}
	if base.Seconds() != 1.0 {
		t.Fatalf("Seconds = %v", base.Seconds())
	}
}

// Property: however events are scheduled, they fire in non-decreasing time
// order and the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(7)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.After(time.Duration(d)*time.Microsecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: nested scheduling from inside events still preserves ordering.
func TestPropertyNestedScheduling(t *testing.T) {
	f := func(seeds []uint8) bool {
		e := New(11)
		last := Time(-1)
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if depth < 3 {
				e.After(time.Duration(depth+1)*time.Millisecond, func() { spawn(depth + 1) })
			}
		}
		for _, s := range seeds {
			e.After(time.Duration(s)*time.Millisecond, func() { spawn(0) })
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingExcludesCanceled(t *testing.T) {
	e := New(1)
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, e.After(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for i := 0; i < 4; i++ {
		evs[i].Cancel()
		evs[i].Cancel() // double cancel must not double-count
	}
	if got := e.Pending(); got != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6", got)
	}
	ran := 0
	for e.Step() {
		ran++
	}
	if ran != 6 {
		t.Fatalf("ran %d events, want 6", ran)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

func TestCancelStormCompacts(t *testing.T) {
	e := New(1)
	const n = 1000
	var evs []*Event
	for i := 0; i < n; i++ {
		evs = append(evs, e.After(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			evs[i].Cancel() // 750 canceled, 250 live
		}
	}
	// The heap must have been compacted along the way: canceled entries can
	// never exceed half the queue, so a cancellation storm stays O(live).
	if dead := len(e.events) - e.Pending(); dead*2 > len(e.events) {
		t.Fatalf("heap holds %d entries of which %d canceled; cancellation storm not compacted", len(e.events), dead)
	}
	if len(e.events) >= n {
		t.Fatalf("heap still holds all %d entries after canceling %d", len(e.events), n-n/4)
	}
	if got := e.Pending(); got != n/4 {
		t.Fatalf("Pending = %d, want %d", got, n/4)
	}
	e.Run()
	if got := e.ran; got != n/4 {
		t.Fatalf("ran %d events, want %d", got, n/4)
	}
	if e.Now() != Time(997*time.Millisecond) {
		t.Fatalf("Now() = %v, want 997ms (last surviving event)", e.Now())
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := New(1)
	ev := e.After(time.Millisecond, func() {})
	e.Run()
	ev.Cancel()
	if e.canceled != 0 {
		t.Fatalf("canceled count = %d after canceling a fired event, want 0", e.canceled)
	}
}

func TestTickerReusesEvent(t *testing.T) {
	e := New(1)
	n := 0
	tk := e.Tick(time.Millisecond, func() { n++ })
	first := tk.ev
	e.RunUntil(Time(10 * time.Millisecond))
	if n != 10 {
		t.Fatalf("ticker fired %d times, want 10", n)
	}
	if tk.ev != first {
		t.Fatal("ticker allocated a fresh event across re-arms")
	}
	// Steady state: each tick pops and re-pushes the same event — zero
	// allocations per period.
	e2 := New(1)
	m := 0
	e2.Tick(time.Millisecond, func() { m++ })
	e2.Step() // first fire
	if allocs := testing.AllocsPerRun(100, func() { e2.Step() }); allocs > 0 {
		t.Fatalf("ticker re-arm allocates %.1f objects per period, want 0", allocs)
	}
}

func TestRunUntilStopKeepsClock(t *testing.T) {
	e := New(1)
	var fired []int
	for i := 1; i <= 10; i++ {
		i := i
		e.After(time.Duration(i)*time.Second, func() {
			fired = append(fired, i)
			if i == 3 {
				e.Stop()
			}
		})
	}
	e.RunUntil(Time(10 * time.Second))
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("Now() = %v after mid-run Stop, want 3s (not the RunUntil target)", e.Now())
	}
	// Resume: the events between the stop point and the target must still be
	// runnable (before the fix the clock jumped to the target and Step
	// panicked with "time went backwards").
	e.RunUntil(Time(10 * time.Second))
	if len(fired) != 10 {
		t.Fatalf("resume ran %d events, want 10 (%v)", len(fired), fired)
	}
	if e.Now() != Time(10*time.Second) {
		t.Fatalf("Now() = %v after resume, want 10s", e.Now())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, func() {})
		e.Step()
	}
}

// resetModel drives one engine through a random schedule of owned events
// that are re-armed either with Reset or with Cancel followed by At. Two
// models fed the same seed must be indistinguishable from outside.
type resetModel struct {
	e     *Engine
	reset bool
	rng   *rand.Rand
	evs   []*Event
	log   []int
}

func newResetModel(reset bool, seed int64, slots int) *resetModel {
	return &resetModel{e: New(1), reset: reset, rng: rand.New(rand.NewSource(seed)), evs: make([]*Event, slots)}
}

func (m *resetModel) arm(slot int) {
	// Few distinct offsets over many slots: most firings tie on time and
	// are ordered by sequence number alone, and re-arms often catch their
	// event still queued (pending or canceled).
	t := m.e.Now().Add(time.Duration(m.rng.Intn(6)) * time.Millisecond)
	if ev := m.evs[slot]; ev != nil && m.reset {
		m.e.Reset(ev, t)
		return
	}
	if ev := m.evs[slot]; ev != nil {
		ev.Cancel()
	}
	m.evs[slot] = m.e.At(t, func() { m.fire(slot) })
}

// op applies one random action: re-arm a slot, cancel it, or nothing.
func (m *resetModel) op() {
	slot := m.rng.Intn(len(m.evs))
	switch m.rng.Intn(4) {
	case 0, 1:
		m.arm(slot)
	case 2:
		if ev := m.evs[slot]; ev != nil {
			ev.Cancel()
		}
	}
}

func (m *resetModel) fire(slot int) {
	m.log = append(m.log, slot)
	for n := m.rng.Intn(3); n > 0; n-- { // re-arm from inside events too
		m.op()
	}
}

func TestResetMatchesCancelThenAt(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := newResetModel(true, seed, 24), newResetModel(false, seed, 24)
		for step := 0; step < 2000; step++ {
			for n := step % 3; n >= 0; n-- {
				a.op()
				b.op()
			}
			ra, rb := a.e.Step(), b.e.Step()
			if ra != rb {
				t.Fatalf("seed %d step %d: Step = %v under Reset, %v under Cancel+At", seed, step, ra, rb)
			}
			if a.e.Pending() != b.e.Pending() || a.e.EventsRun() != b.e.EventsRun() || a.e.Now() != b.e.Now() {
				t.Fatalf("seed %d step %d: Reset (pending %d, run %d, now %v) != Cancel+At (pending %d, run %d, now %v)",
					seed, step, a.e.Pending(), a.e.EventsRun(), a.e.Now(), b.e.Pending(), b.e.EventsRun(), b.e.Now())
			}
		}
		if len(a.log) == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
		for i := range a.log {
			if i >= len(b.log) || a.log[i] != b.log[i] {
				t.Fatalf("seed %d: pop order diverges at firing %d", seed, i)
			}
		}
		if len(a.log) != len(b.log) {
			t.Fatalf("seed %d: %d firings under Reset, %d under Cancel+At", seed, len(a.log), len(b.log))
		}
	}
}

func TestResetAllocatesNothing(t *testing.T) {
	e := New(1)
	ev := e.After(time.Millisecond, func() {})
	e.After(2*time.Millisecond, func() {})
	// Pending: the entry moves within the heap.
	if allocs := testing.AllocsPerRun(100, func() { e.Reset(ev, e.Now().Add(time.Millisecond)) }); allocs > 0 {
		t.Fatalf("Reset of a pending event allocates %.1f objects, want 0", allocs)
	}
	// Fired: the entry goes back into the heap.
	if allocs := testing.AllocsPerRun(100, func() {
		e.Reset(ev, e.Now())
		e.Step()
	}); allocs > 0 {
		t.Fatalf("Reset of a fired event allocates %.1f objects, want 0", allocs)
	}
}

func TestResetRevivesCanceledEvent(t *testing.T) {
	e := New(1)
	n := 0
	ev := e.After(time.Millisecond, func() { n++ })
	ev.Cancel()
	e.Reset(ev, Time(2*time.Millisecond))
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after reviving a canceled event, want 1", e.Pending())
	}
	e.Run()
	if n != 1 || e.Now() != Time(2*time.Millisecond) {
		t.Fatalf("fired %d times, clock %v; want once at 2ms", n, e.Now())
	}
}

func TestResetForeignEventPanics(t *testing.T) {
	a, b := New(1), New(2)
	ev := a.After(time.Millisecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Reset accepted another engine's event")
		}
	}()
	b.Reset(ev, 0)
}

func BenchmarkReset(b *testing.B) {
	e := New(1)
	ev := e.After(time.Microsecond, func() {})
	e.Step()
	b.ReportAllocs()
	for b.Loop() {
		e.Reset(ev, e.Now().Add(time.Microsecond))
		e.Step()
	}
}
