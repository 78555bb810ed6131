// mpegplayer: the paper's demonstration application end to end with the
// real codec — a video source on one machine streams an MPEG-encoded
// synthetic clip over UDP/MFLOW to a Scout appliance, whose MPEG path
// decodes, dithers, and displays the frames on the simulated framebuffer.
// The last displayed frame is rendered as ASCII art so you can see that
// real pixels made the trip.
//
// Run: go run ./examples/mpegplayer [-frames N] [-w W] [-h H]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"scout/internal/appliance"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
	"scout/internal/proto/mflow"
	"scout/internal/routers"
	"scout/internal/sim"
)

func main() {
	frames := flag.Int("frames", 30, "frames to play")
	width := flag.Int("w", 96, "clip width (multiple of 16)")
	height := flag.Int("h", 64, "clip height (multiple of 16)")
	flag.Parse()

	eng := sim.New(1)
	link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 10_000_000, Delay: 100 * time.Microsecond})
	k, err := appliance.Boot(eng, link, appliance.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	src := host.New(link, netdev.MAC{2, 0, 0, 0, 0, 0x77}, inet.IP(10, 0, 0, 77))

	clip := mpeg.ClipSpec{
		Name: "Demo", Frames: *frames, W: *width, H: *height, FPS: 30, GOP: 6,
		Scene: mpeg.SceneConfig{W: *width, H: *height, Detail: 0.5, Motion: 1.2, Objects: 2, Seed: 7},
	}

	// Create the MPEG path (DISPLAY→MPEG→MFLOW→UDP→IP→ETH) with real
	// pixel decode.
	p, lport, err := k.CreateVideoPath(&appliance.VideoAttrs{
		Source:   inet.Participants{RemoteAddr: src.Addr, RemotePort: 7000},
		FPS:      clip.FPS,
		Frames:   clip.Frames,
		QueueLen: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("video path:", p)

	// The source really encodes the synthetic scene (motion estimation,
	// DCT, quantisation, entropy coding) into ALF packets.
	vs, err := host.NewSource(src, host.SourceConfig{
		Clip: clip, SrcPort: 7000, QScale: 3, SearchRange: 4, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded %d frames into %d packets\n", vs.NumFrames(), vs.NumPackets())
	eng.At(0, func() { vs.Start(k.Cfg.Addr, lport) })

	// Play.
	eng.RunFor(time.Duration(*frames/30+3) * time.Second)

	sink := k.Display.Sink(p, "DISPLAY")
	fmt.Printf("displayed %d frames, missed %d deadlines\n", sink.Displayed(), sink.Missed())
	fl, _ := mflow.StatsOf(p, "MFLOW")
	fmt.Printf("MFLOW: delivered %d packets, %d acks, RTT≈%v\n", fl.Delivered, fl.AcksSent, vs.RTT())
	pk, fr, _, _ := routers.MPEGStats(p, "MPEG")
	fmt.Printf("MPEG: %d packets → %d frames; path CPU %v (EWMA %v/execution)\n",
		pk, fr, p.CPUTime(), p.ExecEWMA())

	// Render the framebuffer (RGB332) as ASCII luminance art.
	fmt.Println("\nlast displayed frame:")
	renderASCII(k.FB.Framebuffer(), k.Cfg.DisplayW, *width, *height)
}

// renderASCII draws the top-left w×h of the framebuffer.
func renderASCII(fb []byte, stride, w, h int) {
	const ramp = " .:-=+*#%@"
	for y := 0; y < h; y += 2 { // halve vertically for terminal aspect
		line := make([]byte, w)
		for x := 0; x < w; x++ {
			px := fb[y*stride+x]
			// RGB332 → luminance.
			r := int(px>>5) * 255 / 7
			g := int(px>>2&7) * 255 / 7
			b := int(px&3) * 255 / 3
			lum := (299*r + 587*g + 114*b) / 1000
			line[x] = ramp[lum*(len(ramp)-1)/255]
		}
		fmt.Println(string(line))
	}
}
