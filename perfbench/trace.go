package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"scout/internal/appliance"
	"scout/internal/core"
	"scout/internal/display"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/routers"
)

// A traced pass attributes host CPU to the layers a frame crosses. Spans are
// marked on the data path and timed off it. Each wrapper the pass installs on
// a Deliver, DeliverFrame or OnReceive pointer only switches the goroutine's
// profiler label to its layer and back; the CPU profile running through the
// pass charges every sample to the label current at that instant, which is
// the innermost open span, so a layer's samples are its span minus its
// children. No wrapper reads a clock: a wall-clock read reachable from a
// delivery pointer is what scoutlint's detlint rejects, and a sampling
// profiler needs none. Run-phase samples outside every span are the
// remainder, charged to the innermost scout/internal package on their stack.

// profileHz is the sampling rate traced passes ask for. The kernel may
// deliver fewer (Linux CPU-time timers fire at most once per tick, 250 Hz
// under CONFIG_HZ=250), so a sample's weight is measured, not assumed.
const profileHz = 1000

// layer is a span kind: the device edge or one stack stage.
type layer uint8

const (
	noLayer layer = iota
	netdevRx
	ethStage
	ipStage
	udpStage
	mflowStage
	mpegStage
	displayStage
	numLayers
)

// layerLabel names each layer in profile labels and metric names.
var layerLabel = [numLayers]string{"", "netdev", "eth", "ip", "udp", "mflow", "mpeg", "display"}

// stageLayer maps a path stage's router to its span layer.
func stageLayer(router string) (layer, bool) {
	switch router {
	case "ETH":
		return ethStage, true
	case "IP":
		return ipStage, true
	case "UDP":
		return udpStage, true
	case "MFLOW":
		return mflowStage, true
	case "MPEG":
		return mpegStage, true
	case "DISPLAY":
		return displayStage, true
	}
	return noLayer, false
}

// spanBuf is one shard's span state. Only the goroutine running that shard's
// window touches it; the cluster's window barrier orders those goroutines,
// and the buffers are merged after the run.
type spanBuf struct {
	labels *[numLayers]context.Context
	open   layer
	msgs   [numLayers]int64
}

func (b *spanBuf) enter(l layer) layer {
	prev := b.open
	b.open = l
	b.msgs[l]++
	pprof.SetGoroutineLabels(b.labels[l])
	return prev
}

func (b *spanBuf) exit(prev layer) {
	b.open = prev
	pprof.SetGoroutineLabels(b.labels[prev])
}

func (b *spanBuf) wrapDevice(d *netdev.Device) {
	if rx := d.OnReceive; rx != nil {
		d.OnReceive = func(m *msg.Msg) {
			prev := b.enter(netdevRx)
			rx(m)
			b.exit(prev)
		}
	}
	if rx := d.OnReceiveBurst; rx != nil {
		d.OnReceiveBurst = func(frames []*msg.Msg) {
			prev := b.enter(netdevRx)
			rx(frames)
			b.exit(prev)
		}
	}
}

// wrapPath wraps both ends of every stage of p that belongs to a span layer.
func (b *spanBuf) wrapPath(p *core.Path) {
	for _, s := range p.Stages() {
		if s.Router == nil {
			continue
		}
		l, ok := stageLayer(s.Router.Name)
		if !ok {
			continue
		}
		for _, end := range s.End {
			switch i := end.(type) {
			case *core.NetIface:
				if i != nil && i.Deliver != nil {
					b.wrapNet(i, l)
				}
			case *routers.VideoIface:
				if i != nil && i.DeliverFrame != nil {
					b.wrapVideo(i, l)
				}
			}
		}
	}
}

func (b *spanBuf) wrapNet(ni *core.NetIface, l layer) {
	inner := ni.Deliver
	ni.Deliver = func(i *core.NetIface, m *msg.Msg) error {
		prev := b.enter(l)
		err := inner(i, m)
		b.exit(prev)
		return err
	}
}

func (b *spanBuf) wrapVideo(vi *routers.VideoIface, l layer) {
	inner := vi.DeliverFrame
	vi.DeliverFrame = func(i *routers.VideoIface, f *display.Frame) error {
		prev := b.enter(l)
		err := inner(i, f)
		b.exit(prev)
		return err
	}
}

// tracer instruments one traced pass and owns its CPU profile. A nil tracer
// (an untraced pass) does nothing.
type tracer struct {
	labels [numLayers]context.Context // labels[noLayer] carries none
	offRun context.Context            // the main goroutine between run phases
	bufs   []*spanBuf                 // one per shard
	prof   bytes.Buffer
	cpu0   time.Duration // processCPU when the profile started
}

func newTracer() *tracer {
	t := &tracer{}
	bg := context.Background()
	t.labels[noLayer] = bg
	for l := netdevRx; l < numLayers; l++ {
		t.labels[l] = pprof.WithLabels(bg, pprof.Labels("layer", layerLabel[l]))
	}
	t.offRun = pprof.WithLabels(bg, pprof.Labels("phase", "setup"))
	return t
}

// instrumentKernel wraps k's device and the given paths into shard's span
// buffer. Call it after the paths exist, so the wrappers see the pointers
// path fusion left.
func (t *tracer) instrumentKernel(k *appliance.Kernel, shard int, paths ...*core.Path) {
	if t == nil {
		return
	}
	for len(t.bufs) <= shard {
		t.bufs = append(t.bufs, &spanBuf{labels: &t.labels})
	}
	b := t.bufs[shard]
	b.wrapDevice(k.Dev)
	for _, p := range paths {
		b.wrapPath(p)
	}
}

// begin starts the profile. runtime.SetCPUProfileRate must precede
// StartCPUProfile to raise the rate above pprof's 100 Hz; the runtime then
// prints a harmless "cannot set cpu profile rate" notice to stderr.
func (t *tracer) begin() error {
	t.cpu0 = processCPU()
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		runtime.SetCPUProfileRate(0)
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	pprof.SetGoroutineLabels(t.offRun)
	return nil
}

// enterRun and leaveRun bracket a run phase: samples the main goroutine takes
// outside them (world construction, outcome reads) are left out.
func (t *tracer) enterRun() {
	if t != nil {
		pprof.SetGoroutineLabels(t.labels[noLayer])
	}
}

func (t *tracer) leaveRun() {
	if t != nil {
		pprof.SetGoroutineLabels(t.offRun)
	}
}

// abort stops a pass that panicked.
func (t *tracer) abort() {
	if t != nil {
		pprof.SetGoroutineLabels(context.Background())
		pprof.StopCPUProfile()
	}
}

// end stops the profile and adds the pass's samples and span counts to tot.
func (t *tracer) end(tot *traceTotals) error {
	pprof.SetGoroutineLabels(context.Background())
	pprof.StopCPUProfile()
	tot.cpu += processCPU() - t.cpu0
	samples, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	tot.passes++
	for _, s := range samples {
		tot.samples += s.count
		switch {
		case s.label("phase") != "":
			continue
		case s.label("layer") != "":
			tot.span[layerNamed(s.label("layer"))] += s.count
		default:
			tot.rest[bucketOf(s.stack)] += s.count
		}
	}
	for _, b := range t.bufs {
		for l := range b.msgs {
			tot.msgs[l] += b.msgs[l]
		}
	}
	return nil
}

func layerNamed(name string) layer {
	for l := netdevRx; l < numLayers; l++ {
		if layerLabel[l] == name {
			return l
		}
	}
	return noLayer
}

// bucket is a remainder layer: where run-phase CPU outside every span went.
type bucket uint8

const (
	simBucket bucket = iota
	hostBucket
	inetBucket
	netdevBucket
	schedBucket
	coreBucket
	msgBucket
	runtimeBucket
	otherBucket
	numBuckets
)

var bucketMetric = [numBuckets]string{
	"sim.cpu_frac", "host.cpu_frac", "inet.cpu_frac", "netdev.cpu_frac", "sched.cpu_frac",
	"core.cpu_frac", "msg.cpu_frac", "runtime.gc_cpu_frac", "other.cpu_frac",
}

// bucketOf charges a stack (leaf first) to its innermost scout/internal
// package, so allocation and GC-assist cost lands on the layer that
// allocated. A stack with no scout/internal frame is the runtime's own
// (background GC, scheduler) unless the benchmark's code is on it.
func bucketOf(stack []string) bucket {
	own := false
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "scout/internal/")
		if !ok {
			own = own || strings.HasPrefix(fn, "main.")
			continue
		}
		switch pkgOf(rest) {
		case "sim":
			return simBucket
		case "host":
			return hostBucket
		case "proto/inet":
			return inetBucket
		case "netdev":
			return netdevBucket
		case "sched":
			return schedBucket
		case "core":
			return coreBucket
		case "msg":
			return msgBucket
		}
		return otherBucket
	}
	if own {
		return otherBucket
	}
	return runtimeBucket
}

// pkgOf returns the package part of a function name relative to the module's
// internal/ directory: "proto/inet.ChecksumPseudo" gives "proto/inet".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// traceTotals accumulates the traced passes' samples and span counts.
type traceTotals struct {
	passes  int
	samples int64             // every sample the profiles took
	cpu     time.Duration     // process CPU time while they ran
	span    [numLayers]int64  // samples whose innermost open span is the layer
	rest    [numBuckets]int64 // run-phase samples outside every span
	msgs    [numLayers]int64  // span entries
	devRx   int64             // frames the traced kernels' devices received
}

// sampleNanos is the CPU time one sample stands for.
func (t *traceTotals) sampleNanos() float64 { return ratio(float64(t.cpu), float64(t.samples)) }

func (t *traceTotals) spanNanos(l layer) float64 { return float64(t.span[l]) * t.sampleNanos() }

func (t *traceTotals) restNanos() float64 {
	var n int64
	for _, c := range t.rest {
		n += c
	}
	return float64(n) * t.sampleNanos()
}

func (t *traceTotals) restFrac(k bucket) float64 {
	return ratio(float64(t.rest[k])*t.sampleNanos(), t.restNanos())
}
