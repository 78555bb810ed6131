// Command perfbench is the repository's benchmark. It simulates one workload
// for a host-time budget, checks every simulated world's virtual outcome
// against the internal/exp runner it reproduces, and prints the host-side
// cost of the simulation: end-to-end metrics, or with --trace 1 the same
// cost attributed to the simulator's layers. Virtual time is the answer and
// host time is the cost, so every virtual outcome is a correctness check and
// every metric is measured on the host.
//
//	bash perfbench/run.sh --workload table1_scout --seed 0 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// See README.md for the workloads, the metrics and what moves them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scout/internal/appliance"
	"scout/internal/core"
	"scout/internal/host"
	"scout/internal/netdev"
	"scout/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1_scout, scale_paths or lossy_retx")
	seed := fs.Int64("seed", 0, "non-negative input seed; 0 runs the internal/exp runners' own seeds")
	seconds := fs.Float64("seconds", 10, "host seconds to spend on measured passes")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: usage: --workload table1_scout|scale_paths|lossy_retx --seed N>=0 --seconds S>0 --trace 0|1\n")
		return 2
	}
	b := &bench{w: w, seeds: w.derive(*seed), traced: *trace == 1, log: stderr}
	b.measure(time.Duration(*seconds * float64(time.Second)))
	metrics := b.e2eMetrics()
	if b.traced {
		metrics = b.layerMetrics()
	}
	if err := b.report(stdout, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// counters are the virtual-clock counts a pass reads off its worlds after
// they ran; at one seed they repeat exactly.
type counters struct {
	events, dispatches, interrupts    int64
	devRx, burstFrames                int64
	flowHits, flowLookups             int64
	pktsSent, acks, retransmits, rtos int64
	gaps, holdFlushes, oldDrops       int64
}

// pass is one execution of a workload: every world it builds and runs, with
// host time split by phase.
type pass struct {
	tr *tracer // nil in untraced passes

	// Host CPU time (every thread; time the hypervisor steals from the VM
	// is not counted) before each world's first RunUntil and inside the
	// RunUntil loops, and the run phase's wall time.
	setup, runCPU time.Duration
	run           time.Duration

	// Setup spans.
	prepare time.Duration // host.NewSource and host.PrepareClip
	bootT   time.Duration // appliance.Boot
	create  time.Duration // CreateVideoPath
	paths   int

	// Run-phase Go heap activity.
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration

	peakRSS  float64 // MiB, high-water mark of this pass alone
	frames   int64   // frames displayed
	counts   counters
	outcomes []worldOutcome
}

func (p *pass) add(o worldOutcome) { p.outcomes = append(p.outcomes, o) }

func (p *pass) boot(eng *sim.Engine, link *netdev.Link, cfg appliance.Config) (*appliance.Kernel, error) {
	t := time.Now()
	k, err := appliance.Boot(eng, link, cfg)
	p.bootT += time.Since(t)
	return k, err
}

func (p *pass) createPath(k *appliance.Kernel, a *appliance.VideoAttrs) (*core.Path, uint16, error) {
	t := time.Now()
	path, port, err := k.CreateVideoPath(a)
	p.create += time.Since(t)
	p.paths++
	return path, port, err
}

func (p *pass) newSource(h *host.Host, cfg host.SourceConfig) (*host.Source, error) {
	t := time.Now()
	src, err := host.NewSource(h, cfg)
	p.prepare += time.Since(t)
	return src, err
}

// runPhase times fn as run-phase work and records the heap activity it
// caused. It first collects the set-up's garbage, billed to set-up, so the
// run neither pays for it nor depends on when a set-up-triggered cycle
// would have landed.
func (p *pass) runPhase(fn func()) {
	c := processCPU()
	runtime.GC()
	p.setup += processCPU() - c
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.tr.enterRun()
	t, c := time.Now(), processCPU()
	fn()
	p.runCPU += processCPU() - c
	p.run += time.Since(t)
	p.tr.leaveRun()
	runtime.ReadMemStats(&after)
	p.mallocs += after.Mallocs - before.Mallocs
	p.allocBytes += after.TotalAlloc - before.TotalAlloc
	p.gcCycles += after.NumGC - before.NumGC
	p.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// bench is one invocation: a workload at one seed, its passes and checks.
type bench struct {
	w      *workload
	seeds  seeds
	traced bool
	log    io.Writer

	attempted, failed int
	plain, traces     []*pass // measured passes that ran to completion
	digests           []uint64
	trace             traceTotals
	rssNote           string
}

// measure runs the reference checks, then measured passes until budget is
// spent. In a traced invocation every third pass runs untraced, so the
// tracing overhead compares neighbours and most of the budget feeds the
// sampled spans.
func (b *bench) measure(budget time.Duration) {
	// Virtual results must not move: the runner still reports the recorded
	// outcome, and so do the builders at the runner's seeds.
	b.checkRunner(b.runRunner())
	want := b.w.golden
	if b.seeds != b.w.defaults {
		p, err := b.runPass(b.w.defaults, false)
		b.check("reference pass", p, err, want, nil)
		want = nil // other seeds: passes must repeat
	}
	minPasses := 3
	if b.traced {
		minPasses = 4
	}
	var first []string
	deadline := time.Now().Add(budget)
	// Pass 0 warms the heap and caches up: it is checked, not measured.
	for i := 0; i <= minPasses || time.Now().Before(deadline); i++ {
		traced := b.traced && i > 0 && i%3 != 0
		p, err := b.runPass(b.seeds, traced)
		label := fmt.Sprintf("pass %d", i)
		if !b.check(label, p, err, want, first) {
			continue
		}
		if first == nil {
			for _, o := range p.outcomes {
				first = append(first, o.detail)
			}
		}
		fmt.Fprintf(b.log, "perfbench: %s traced=%v setup %.4fs run %.4fs cpu %.4fs frames %d gc %d peak %.1fMiB\n",
			label, traced, p.setup.Seconds(), p.run.Seconds(), p.runCPU.Seconds(), p.frames, p.gcCycles, p.peakRSS)
		b.digests = append(b.digests, digest(p))
		switch {
		case i == 0:
		case traced:
			b.traces = append(b.traces, p)
		default:
			b.plain = append(b.plain, p)
		}
	}
}

// runPass runs one pass from a freshly returned heap, so its peak RSS is its
// own. A panic in a world fails the pass instead of the invocation.
func (b *bench) runPass(sd seeds, traced bool) (p *pass, err error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil && b.rssNote == "" {
		b.rssNote = fmt.Sprintf("peak RSS is the process's, not per pass: %v", err)
		fmt.Fprintf(b.log, "perfbench: %s\n", b.rssNote)
	}
	p = &pass{}
	if traced {
		p.tr = newTracer()
		if err := p.tr.begin(); err != nil {
			return nil, err
		}
	}
	defer func() {
		if r := recover(); r != nil {
			p.tr.abort()
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	b.w.pass(p, sd)
	if traced {
		if err := p.tr.end(&b.trace); err != nil {
			return nil, err
		}
		b.trace.devRx += p.counts.devRx
	}
	p.peakRSS = peakRSSMiB()
	return p, nil
}

// runRunner runs the workload's internal/exp runner. The runners panic on a
// failed world; that reports no outcome, which checkRunner counts as failed.
func (b *bench) runRunner() (got []any) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(b.log, "perfbench: internal/exp runner: panic: %v\n", r)
			got = nil
		}
	}()
	return b.w.runner()
}

// checkRunner compares the runner's outcomes with the recorded ones,
// counting each world.
func (b *bench) checkRunner(got []any) {
	for i, g := range b.w.golden {
		b.attempted++
		if i >= len(got) || got[i] != g.ref {
			b.failed++
			var have any
			if i < len(got) {
				have = got[i]
			}
			fmt.Fprintf(b.log, "perfbench: runner world %d: outcome %+v differs from the recorded %+v\n", i, have, g.ref)
		}
	}
}

// check counts a pass's worlds as attempted and fails each one that did not
// finish, or whose outcome differs from want (the recorded one) or from
// first (the first measured pass at the same seeds). It reports whether all
// passed.
func (b *bench) check(label string, p *pass, perr error, want []worldOutcome, first []string) bool {
	if perr != nil {
		b.attempted += len(b.w.golden)
		b.failed += len(b.w.golden)
		fmt.Fprintf(b.log, "perfbench: %s: %v\n", label, perr)
		return false
	}
	ok := true
	for i := 0; i < len(b.w.golden); i++ {
		b.attempted++
		var bad error
		switch {
		case i >= len(p.outcomes):
			bad = errors.New("world missing from the pass")
		case p.outcomes[i].err != nil:
			bad = p.outcomes[i].err
		case want != nil && p.outcomes[i].ref != want[i].ref:
			bad = fmt.Errorf("outcome %+v differs from the recorded %+v", p.outcomes[i].ref, want[i].ref)
		case want != nil && p.outcomes[i].detail != want[i].detail:
			bad = fmt.Errorf("outcome %q differs from the recorded %q", p.outcomes[i].detail, want[i].detail)
		case first != nil && p.outcomes[i].detail != first[i]:
			bad = fmt.Errorf("outcome %q differs from the first pass's %q", p.outcomes[i].detail, first[i])
		}
		if bad != nil {
			b.failed++
			ok = false
			fmt.Fprintf(b.log, "perfbench: %s world %d: %v\n", label, i, bad)
		}
	}
	return ok
}

// digest is the FNV-64a hash of a pass's virtual outcomes.
func digest(p *pass) uint64 {
	h := fnv.New64a()
	for _, o := range p.outcomes {
		_, _ = io.WriteString(h, o.detail+"\n") // hash.Hash writes never fail
	}
	return h.Sum64()
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over passes.
func medianOf(ps []*pass, f func(p *pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eMetrics are the end-to-end metrics: medians over untraced passes.
func (b *bench) e2eMetrics() []metric {
	ps := b.plain
	return []metric{
		{"sim_frames_per_s", "1/s", medianOf(ps, func(p *pass) float64 { return ratio(float64(p.frames), p.runCPU.Seconds()) })},
		{"allocs_per_frame", "count", medianOf(ps, func(p *pass) float64 { return ratio(float64(p.mallocs), float64(p.frames)) })},
		{"alloc_bytes_per_frame", "B", medianOf(ps, func(p *pass) float64 { return ratio(float64(p.allocBytes), float64(p.frames)) })},
		{"peak_rss_mb", "MiB", medianOf(ps, func(p *pass) float64 { return p.peakRSS })},
		{"setup_s", "s", medianOf(ps, func(p *pass) float64 { return p.setup.Seconds() })},
	}
}

// layerMetrics are the per-layer metrics of a traced invocation: sampled
// spans from the traced passes, counts from the first pass, host times and
// runtime activity as medians over the untraced passes.
func (b *bench) layerMetrics() []metric {
	all := append(append([]*pass(nil), b.plain...), b.traces...)
	var c counters
	frames := 0.0
	if len(all) > 0 {
		c, frames = all[0].counts, float64(all[0].frames)
	}
	t := &b.trace
	out := []metric{
		{"host.prepare_ms", "ms", medianOf(all, func(p *pass) float64 { return ms(p.prepare) })},
		{"appliance.boot_ms", "ms", medianOf(all, func(p *pass) float64 { return ms(p.bootT) })},
		{"core.create_path_us", "us", medianOf(all, func(p *pass) float64 {
			return ratio(float64(p.create.Microseconds()), float64(p.paths))
		})},
		{"netdev.rx_ns_per_frame", "ns", ratio(t.spanNanos(netdevRx), float64(t.devRx))},
		{"core.flowcache_hit_ratio", "ratio", ratio(float64(c.flowHits), float64(c.flowLookups))},
		{"netdev.burst_frames_frac", "ratio", ratio(float64(c.burstFrames), float64(c.devRx))},
		{"netdev.wire_frames_per_frame", "ratio", ratio(float64(c.devRx), frames)},
	}
	for l := ethStage; l < numLayers; l++ {
		out = append(out, metric{layerLabel[l] + ".self_ns_per_msg", "ns", ratio(t.spanNanos(l), float64(t.msgs[l]))})
	}
	out = append(out, metric{"sim.unattributed_ms", "ms", ratio(t.restNanos()/1e6, float64(t.passes))})
	for k := bucket(0); k < numBuckets; k++ {
		out = append(out, metric{bucketMetric[k], "ratio", t.restFrac(k)})
	}
	wasted := ratio(float64(c.oldDrops), float64(c.retransmits))
	runCPU := func(ps []*pass) float64 { return medianOf(ps, func(p *pass) float64 { return p.runCPU.Seconds() }) }
	out = append(out,
		metric{"sim.events_per_frame", "ratio", ratio(float64(c.events), frames)},
		metric{"sim.events_per_s", "1/s", medianOf(b.plain, func(p *pass) float64 {
			return ratio(float64(p.counts.events), p.runCPU.Seconds())
		})},
		metric{"sim.wall_frames_per_s", "1/s", medianOf(b.plain, func(p *pass) float64 {
			return ratio(float64(p.frames), p.run.Seconds())
		})},
		metric{"sched.dispatches_per_frame", "ratio", ratio(float64(c.dispatches), frames)},
		metric{"sched.interrupts_per_frame", "ratio", ratio(float64(c.interrupts), frames)},
		metric{"host.pkts_sent_per_frame", "ratio", ratio(float64(c.pktsSent), frames)},
		metric{"host.acks_per_pkt", "ratio", ratio(float64(c.acks), float64(c.pktsSent))},
		metric{"runtime.gc_cycles", "count", medianOf(b.plain, func(p *pass) float64 { return float64(p.gcCycles) })},
		metric{"runtime.gc_pause_ms", "ms", medianOf(b.plain, func(p *pass) float64 { return ms(p.gcPause) })},
		metric{"trace.overhead_frac", "ratio", ratio(runCPU(b.traces), runCPU(b.plain)) - 1},
	)
	if b.w.retx {
		// The reliability counts are 0 on a workload that never retransmits.
		out = append(out,
			metric{"mflow.retransmits", "count", float64(c.retransmits)},
			metric{"mflow.rtos", "count", float64(c.rtos)},
			metric{"mflow.gaps", "count", float64(c.gaps)},
			metric{"mflow.hold_flushes", "count", float64(c.holdFlushes)},
			metric{"mflow.retx_wasted_ratio", "ratio", wasted},
		)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// report prints a readable summary, then the result object as the last line.
func (b *bench) report(w io.Writer, metrics []metric) error {
	fmt.Fprintf(w, "workload %s (%s), trace %v: %d plain + %d traced passes\n",
		b.w.name, b.seeds, b.traced, len(b.plain), len(b.traces))
	fmt.Fprintf(w, "outcome digest %s\n", b.digestLine())
	fmt.Fprintf(w, "error_rate %s ratio (%d of %d worlds failed)\n",
		strconv.FormatFloat(ratio(float64(b.failed), float64(b.attempted)), 'g', -1, 64), b.failed, b.attempted)
	if b.rssNote != "" {
		fmt.Fprintf(w, "note: %s\n", b.rssNote)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, map[string]value{}}
	for _, m := range metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "  %-30s %s %s\n", m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// digestLine renders the measured passes' outcome digest; traced and
// untraced passes at one seed must agree on it.
func (b *bench) digestLine() string {
	if len(b.digests) == 0 {
		return "none (no pass completed)"
	}
	for _, d := range b.digests[1:] {
		if d != b.digests[0] {
			return fmt.Sprintf("%016x MISMATCH across passes", b.digests[0])
		}
	}
	return fmt.Sprintf("%016x (identical in all %d passes)", b.digests[0], len(b.digests))
}

// processCPU is the CPU time every thread of the process has used. With
// paravirtual steal accounting (KVM guests) it leaves out time the host
// gave to other tenants, which wall time cannot.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current RSS (Linux /proc/self/clear_refs, value 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
