package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"scout/internal/appliance"
	"scout/internal/core"
	"scout/internal/display"
	"scout/internal/exp"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
	"scout/internal/proto/mflow"
	"scout/internal/routers"
	"scout/internal/sim"
)

// The three workloads rebuild the worlds of internal/exp runners through the
// packages' public APIs, so the benchmark can time each layer's calls from
// outside the program. The topology constants below are the runners' own
// (internal/exp keeps them unexported); a drift between the two copies shows
// up as an outcome mismatch against the runner, never as a silent change.

// Standard experiment topology: a 10 Mb/s Ethernet with 20µs propagation.
const (
	linkBps   = 10_000_000
	linkDelay = 20 * time.Microsecond
)

var (
	scoutMAC  = netdev.MAC{2, 0, 0, 0, 0, 0x10}
	scoutAddr = inet.IP(10, 0, 0, 10)
	srcMAC    = netdev.MAC{2, 0, 0, 0, 0, 0x20}
	srcAddr   = inet.IP(10, 0, 0, 20)
)

// seeds are a world's random inputs: the engine seed drives every simulated
// random draw (link loss included), the clip seed the frame-size trace.
type seeds struct {
	engine, clip int64
}

func (s seeds) String() string { return fmt.Sprintf("engine %d, clip %d", s.engine, s.clip) }

// workload is one benchmark scenario.
type workload struct {
	name     string
	defaults seeds
	// retx marks a workload that runs MFLOW retransmission; only such a
	// workload reports the reliability counts.
	retx bool
	// derive maps the --seed argument to the world's seeds; 0 gives defaults.
	derive func(s int64) seeds
	// pass builds, runs and checks every world of one pass.
	pass func(p *pass, sd seeds)
	// runner returns, per world, the outcome the internal/exp runner
	// reports; the runners run only at the default seeds.
	runner func() []any
	// golden is every world's outcome at the default seeds, one per world
	// of a pass, recorded when the benchmark was defined: ref is what the
	// runner reports, detail the rest. Host-side work must never move either.
	golden []worldOutcome
}

// Default seeds: the ones the internal/exp runners hard-code.
var (
	table1Defaults = seeds{engine: 1, clip: 11}
	scaleDefaults  = seeds{engine: 1, clip: 11}
	lossyDefaults  = seeds{engine: 2, clip: 11}
)

var workloads = []*workload{
	{
		name:     "table1_scout",
		defaults: table1Defaults,
		derive:   func(s int64) seeds { return seeds{engine: 1 + s, clip: 11 + s} },
		pass:     table1Pass,
		runner:   table1Runner,
		golden: []worldOutcome{
			{ref: 42.857142857142854, detail: "Flower displayed=150 end=3500000000 events=10035 cpu=3450673518 sent=989 acks=989"},
			{ref: 49.44852941176471, detail: "Neptune displayed=1345 end=27200000000 events=77490 cpu=27002880028 sent=7661 acks=7661"},
			{ref: 66.12021857923497, detail: "RedsNightmare displayed=1210 end=18300000000 events=51817 cpu=18158460886 sent=5041 acks=5041"},
			{ref: 244.16666666666666, detail: "Canyon displayed=1758 end=7200000000 events=22090 cpu=7110813420 sent=2529 acks=2529"},
		},
	},
	{
		name:     "scale_paths",
		defaults: scaleDefaults,
		// E15 fixes its clip seed; a 4-frame clip's trace is too short to
		// average out, so other clip seeds would be other workloads.
		derive: func(s int64) seeds { return seeds{engine: 1 + s, clip: 11} },
		pass:   scalePass,
		runner: scaleRunner,
		golden: []worldOutcome{{
			ref: exp.E15Row{Shards: scaleShards, Digest: 8054092673065464677, Events: 252950,
				CompleteI: 12800, CompleteP: 38400, Packets: 51200, Acks: 51200},
			detail: "{Shards:2 Digest:8054092673065464677 TraceDigest:0 Events:252950 CompleteI:12800 " +
				"CompleteP:38400 Packets:51200 Acks:51200 WallSeconds:0} displayed=35550",
		}},
	},
	{
		name:     "lossy_retx",
		defaults: lossyDefaults,
		retx:     true,
		derive:   func(s int64) seeds { return seeds{engine: 2 + s, clip: 11} },
		pass:     lossyPass,
		runner:   lossyRunner,
		golden: []worldOutcome{
			{ref: exp.LossCell{FPS: 48.731884057971016, Complete: 1345, Displayed: 1345, Retransmits: 109, RTOs: 31},
				detail: "loss=0.01 {FPS:48.731884057971016 Complete:1345 Displayed:1345 Retransmits:109 RTOs:31 Gaps:0 NoPathDrops:0} " +
					"stop=27600000000 events=79191 cpu=27003057436 sent=7770 acks=7612 mflow={Delivered:7661 OldDrops:13 Late:0 " +
					"Gaps:0 AcksSent:7674 HoldFlushes:0 AcksSeen:0 Retransmits:0 RTOs:0 Abandoned:0}"},
			{ref: exp.LossCell{FPS: 40.77181208053691, Complete: 1215, Displayed: 1181, Retransmits: 306, RTOs: 99, Gaps: 144},
				detail: "loss=0.05 {FPS:40.77181208053691 Complete:1215 Displayed:1181 Retransmits:306 RTOs:99 Gaps:144 NoPathDrops:0} " +
					"stop=32800000000 events=100458 cpu=26560969834 sent=7967 acks=7207 mflow={Delivered:7517 OldDrops:54 Late:0 " +
					"Gaps:144 AcksSent:7571 HoldFlushes:10 AcksSeen:0 Retransmits:0 RTOs:0 Abandoned:0}"},
		},
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// worldOutcome is everything one simulated world produced on the virtual
// clock.
type worldOutcome struct {
	// ref is the value the matching internal/exp runner reports.
	ref any
	// detail renders every virtual outcome the pass keeps; repeated passes
	// at one seed must render it identically.
	detail string
	// err is set when the world did not finish (virtual-time cap, failed
	// construction).
	err error
}

// runUntil advances eng in the runners' 100ms steps until pred holds or cap
// elapses, returning the time pred first held (or the cap) and whether it
// held. The step matters: predicates are sampled only at step boundaries,
// so the stop instant, and every counter read after it, depends on it.
func runUntil(eng *sim.Engine, cap time.Duration, pred func() bool) (sim.Time, bool) {
	const step = 100 * time.Millisecond
	deadline := sim.Time(cap)
	for eng.Now() < deadline {
		if pred() {
			return eng.Now(), true
		}
		next := eng.Now().Add(step)
		if next > deadline {
			next = deadline
		}
		eng.RunUntil(next)
	}
	return eng.Now(), false
}

func rate(n int64, at sim.Time) float64 {
	if at <= 0 {
		return 0
	}
	return float64(n) / at.Seconds()
}

// maxRateConfig is the runners' bootScout(maxRate=true) configuration: a
// 2 kHz display so vsync never limits throughput.
func maxRateConfig() appliance.Config {
	cfg := appliance.DefaultConfig()
	cfg.MAC, cfg.Addr = scoutMAC, scoutAddr
	cfg.RefreshHz = 2000
	return cfg
}

// maxRatePath is the single Scout video path of Table 1 and E9.
func maxRatePath(reliable bool) *appliance.VideoAttrs {
	return &appliance.VideoAttrs{
		Source:    inet.Participants{RemoteAddr: srcAddr, RemotePort: 7000},
		FPS:       2000, // display never limits a max-rate run
		CostModel: true,
		QueueLen:  32,
		Sched:     "rr",
		Priority:  2,
		Reliable:  reliable,
	}
}

// countKernel adds a kernel's and its source's counters to the pass.
func (p *pass) countKernel(k *appliance.Kernel, paths []*core.Path, srcs []*host.Source) {
	st := k.CPU.Stats()
	p.counts.dispatches += st.Dispatches
	p.counts.interrupts += st.Interrupts
	rx, _, _ := k.Dev.Stats()
	_, burstFrames := k.Dev.BurstStats()
	p.counts.devRx += rx
	p.counts.burstFrames += burstFrames
	if fc := k.Dev.Flows; fc != nil {
		fst := fc.Stats()
		p.counts.flowHits += fst.Hits
		p.counts.flowLookups += fst.Hits + fst.Misses
	}
	for _, path := range paths {
		if ms, ok := mflow.StatsOf(path, "MFLOW"); ok {
			p.counts.gaps += ms.Gaps
			p.counts.holdFlushes += ms.HoldFlushes
			p.counts.oldDrops += ms.OldDrops
		}
	}
	for _, src := range srcs {
		p.counts.pktsSent += src.PacketsSent
		p.counts.acks += src.AcksReceived
		p.counts.retransmits += src.Retransmits
		p.counts.rtos += src.RTOs
	}
}

// singleWorld is the one-kernel, one-source world of Table 1 and E9.
type singleWorld struct {
	eng  *sim.Engine
	k    *appliance.Kernel
	path *core.Path
	src  *host.Source
	sink *display.Sink
}

// buildSingle constructs a single-path world and schedules the source's
// start; it returns before the first RunUntil.
func (p *pass) buildSingle(sd seeds, clip mpeg.ClipSpec, loss float64, reliable bool) (*singleWorld, error) {
	c0 := processCPU()
	eng := sim.New(sd.engine)
	link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: linkBps, Delay: linkDelay})
	if loss > 0 {
		link.InjectFaults(netdev.FaultPlan{Loss: loss})
	}
	k, err := p.boot(eng, link, maxRateConfig())
	if err != nil {
		return nil, err
	}
	h := host.New(link, srcMAC, srcAddr)
	path, lport, err := p.createPath(k, maxRatePath(reliable))
	if err != nil {
		return nil, err
	}
	src, err := p.newSource(h, host.SourceConfig{
		Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true, Seed: sd.clip,
		Retransmit: reliable,
	})
	if err != nil {
		return nil, err
	}
	eng.At(0, func() { src.Start(k.Cfg.Addr, lport) })
	sink := k.Display.Sink(path, "DISPLAY")
	if sink == nil {
		return nil, fmt.Errorf("path %v has no DISPLAY sink", path)
	}
	p.setup += processCPU() - c0
	p.tr.instrumentKernel(k, 0, path)
	return &singleWorld{eng: eng, k: k, path: path, src: src, sink: sink}, nil
}

// table1Pass streams the four paper clips at maximum rate through one Scout
// video path each, like exp.ScoutMaxRate.
func table1Pass(p *pass, sd seeds) {
	for _, clip := range mpeg.Clips {
		p.add(table1World(p, sd, clip))
	}
}

func table1World(p *pass, sd seeds, clip mpeg.ClipSpec) worldOutcome {
	w, err := p.buildSingle(sd, clip, 0, false)
	if err != nil {
		return worldOutcome{err: fmt.Errorf("%s: %w", clip.Name, err)}
	}
	total := int64(w.src.NumFrames())
	var end sim.Time
	var held bool
	p.runPhase(func() {
		end, held = runUntil(w.eng, 10*time.Minute, func() bool { return w.sink.Displayed() >= total })
	})
	shown := w.sink.Displayed()
	p.frames += shown
	p.counts.events += int64(w.eng.EventsRun())
	p.countKernel(w.k, []*core.Path{w.path}, []*host.Source{w.src})
	out := worldOutcome{
		ref: rate(shown, end),
		detail: fmt.Sprintf("%s displayed=%d end=%d events=%d cpu=%d sent=%d acks=%d",
			clip.Name, shown, end, w.eng.EventsRun(), w.path.CPUTime(), w.src.PacketsSent, w.src.AcksReceived),
	}
	if !held {
		out.err = fmt.Errorf("%s: %d of %d frames displayed at the %v cap", clip.Name, shown, total, end)
	}
	return out
}

func table1Runner() []any {
	want := make([]any, 0, len(mpeg.Clips))
	for _, clip := range mpeg.Clips {
		want = append(want, exp.ScoutMaxRate(clip, false))
	}
	return want
}

// lossyRates are the E9 loss cells the lossy workload runs, retransmission on.
var lossyRates = []float64{0.01, 0.05}

// lossyPass streams Neptune at maximum rate over a lossy link with reliable
// MFLOW and a retransmitting source, like exp.LossMaxRate(.., true).
func lossyPass(p *pass, sd seeds) {
	for _, loss := range lossyRates {
		p.add(lossyWorld(p, sd, loss))
	}
}

func lossyWorld(p *pass, sd seeds, loss float64) worldOutcome {
	w, err := p.buildSingle(sd, mpeg.Neptune, loss, true)
	if err != nil {
		return worldOutcome{err: fmt.Errorf("loss %v: %w", loss, err)}
	}
	total := int64(w.src.NumFrames())
	// E9's drain rule: stop once every frame is displayed, or once the
	// display has been quiet for 3 virtual seconds; frames that never
	// complete are an outcome, not a failure.
	var lastDisp int64
	var lastChange, end sim.Time
	var held bool
	p.runPhase(func() {
		end, held = runUntil(w.eng, 5*time.Minute, func() bool {
			if d := w.sink.Displayed(); d != lastDisp {
				lastDisp, lastChange = d, w.eng.Now()
			}
			if lastDisp >= total {
				return true
			}
			return lastDisp > 0 && w.eng.Now().Sub(lastChange) >= 3*time.Second
		})
	})
	stop := end
	if lastDisp > 0 {
		end = lastChange // the runner does not bill the quiet tail
	}
	cell := exp.LossCell{
		Displayed: w.sink.Displayed(), Retransmits: w.src.Retransmits, RTOs: w.src.RTOs,
		NoPathDrops: w.k.Dev.NoPathDrops(),
	}
	cell.Complete, _ = routers.MPEGComplete(w.path, "MPEG")
	ms, _ := mflow.StatsOf(w.path, "MFLOW")
	cell.Gaps = ms.Gaps
	cell.FPS = rate(cell.Complete, end)

	p.frames += cell.Displayed
	p.counts.events += int64(w.eng.EventsRun())
	p.countKernel(w.k, []*core.Path{w.path}, []*host.Source{w.src})
	out := worldOutcome{
		ref: cell,
		detail: fmt.Sprintf("loss=%v %+v stop=%d events=%d cpu=%d sent=%d acks=%d mflow=%+v",
			loss, cell, stop, w.eng.EventsRun(), w.path.CPUTime(), w.src.PacketsSent, w.src.AcksReceived, ms),
	}
	if !held {
		out.err = fmt.Errorf("loss %v: still draining at the %v cap", loss, stop)
	}
	return out
}

func lossyRunner() []any {
	want := make([]any, 0, len(lossyRates))
	for _, loss := range lossyRates {
		want = append(want, exp.LossMaxRate(mpeg.Neptune, loss, true))
	}
	return want
}

// The scale world is E15's at 200 groups × 64 paths on two shards.
const (
	scaleGroups     = 200
	scalePaths      = 64
	scaleFrames     = 4
	scaleShards     = 2
	scaleCrossEvery = 8
	scaleFPS        = 5
)

// scaleClip is E15's tiny paced clip.
var scaleClip = mpeg.ClipSpec{
	Name: "Scale", Frames: scaleFrames, W: 64, H: 48, FPS: scaleFPS, GOP: 4,
	AvgPBits: 2000, Jitter: 0.2,
}

func scaleRunner() []any {
	res := exp.RunE15(exp.E15Config{
		Groups: scaleGroups, PathsPerGroup: scalePaths, Frames: scaleFrames,
		Shards: []int{scaleShards}, CrossEvery: scaleCrossEvery, Seed: scaleDefaults.engine,
	})
	want := make([]any, 0, len(res.Rows))
	for _, row := range res.Rows {
		row.WallSeconds = 0
		want = append(want, row)
	}
	return want
}

// scaleGroup is one appliance world of the scale workload.
type scaleGroup struct {
	k     *appliance.Kernel
	paths []*core.Path
	srcs  []*host.Source
}

// scalePass runs E15's world: scaleGroups kernels, each streaming
// scalePaths paced MFLOW paths from one source host, every
// scaleCrossEvery-th host across a cross-shard wire.
func scalePass(p *pass, sd seeds) {
	p.add(scaleWorld(p, sd))
}

func scaleWorld(p *pass, sd seeds) worldOutcome {
	c0 := processCPU()
	tp := time.Now()
	prep := host.PrepareClip(scaleClip, 1024, sd.clip)
	p.prepare += time.Since(tp)
	c := sim.NewCluster(sd.engine, scaleShards, time.Millisecond)
	groups := make([]scaleGroup, scaleGroups)
	for g := range groups {
		gr, err := p.bootScaleGroup(prep, c, g)
		if err != nil {
			return worldOutcome{err: fmt.Errorf("group %d: %w", g, err)}
		}
		groups[g] = gr
	}
	p.setup += processCPU() - c0
	for g, gr := range groups {
		p.tr.instrumentKernel(gr.k, g%scaleShards, gr.paths...)
	}

	horizon := time.Duration(scaleFrames)*time.Second/scaleFPS + 300*time.Millisecond
	p.runPhase(func() { c.RunUntil(sim.Time(horizon)) })

	// E15's digest: every path's outputs in global group order.
	row := exp.E15Row{Shards: scaleShards, Events: c.EventsRun()}
	h := fnv.New64a()
	var b [8]byte
	var displayed int64
	for g := range groups {
		gr := &groups[g]
		for i, path := range gr.paths {
			ci, cp, _ := routers.MPEGCompleteByKind(path, "MPEG")
			src := gr.srcs[i]
			_, doneAt := src.Done()
			for _, v := range []int64{ci, cp, int64(path.CPUTime()), src.PacketsSent, src.AcksReceived, int64(doneAt)} {
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				_, _ = h.Write(b[:]) // hash.Hash writes never fail
			}
			row.CompleteI += ci
			row.CompleteP += cp
			row.Packets += src.PacketsSent
			row.Acks += src.AcksReceived
			if sink := gr.k.Display.Sink(path, "DISPLAY"); sink != nil {
				displayed += sink.Displayed()
			}
		}
		p.countKernel(gr.k, gr.paths, gr.srcs)
	}
	row.Digest = h.Sum64()
	p.counts.events += int64(row.Events)
	p.frames += displayed
	return worldOutcome{ref: row, detail: fmt.Sprintf("%+v displayed=%d", row, displayed)}
}

// bootScaleGroup builds group g on its shard, as exp's bootE15Group does.
func (p *pass) bootScaleGroup(prep *host.Prepared, c *sim.Cluster, g int) (scaleGroup, error) {
	eng := c.Shard(g % c.Shards())
	var link *netdev.Link
	var h *host.Host
	if g%scaleCrossEvery == 0 {
		far := c.Shard((g + 1) % c.Shards())
		link = netdev.NewCrossLink(c, int64(g)+1, eng, far,
			netdev.LinkConfig{BitsPerSec: 1_000_000_000, Delay: c.Lookahead()})
		h = host.NewOn(link, srcMAC, srcAddr, far)
	} else {
		link = netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 1_000_000_000, Delay: linkDelay})
		h = host.New(link, srcMAC, srcAddr)
	}

	cfg := appliance.DefaultConfig()
	cfg.MAC, cfg.Addr = scoutMAC, scoutAddr
	cfg.DisplayW, cfg.DisplayH = scaleClip.W, scaleClip.H
	cfg.RefreshHz = 30
	cfg.StarveAfter = -1
	k, err := p.boot(eng, link, cfg)
	if err != nil {
		return scaleGroup{}, err
	}
	gr := scaleGroup{k: k}
	for i := 0; i < scalePaths; i++ {
		port := uint16(7000 + i)
		path, lport, err := p.createPath(k, &appliance.VideoAttrs{
			Source:     inet.Participants{RemoteAddr: srcAddr, RemotePort: port},
			FPS:        scaleFPS,
			Frames:     scaleFrames,
			CostModel:  true,
			QueueLen:   8,
			Sched:      "rr",
			Priority:   2,
			TraceLabel: "scale",
		})
		if err != nil {
			return scaleGroup{}, err
		}
		src, err := p.newSource(h, host.SourceConfig{Prepared: prep, SrcPort: port, FPS: scaleFPS, Seed: 11})
		if err != nil {
			return scaleGroup{}, err
		}
		start := sim.Time(time.Duration(i%32) * 500 * time.Microsecond)
		h.Engine().At(start, func() { src.Start(k.Cfg.Addr, lport) })
		gr.paths = append(gr.paths, path)
		gr.srcs = append(gr.srcs, src)
	}
	return gr, nil
}
