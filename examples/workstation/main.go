// Workstation: the whole SRC daily-driver experience on one simulated
// Firefly. A five-processor machine boots Topaz, Trestle opens windows on
// the MDC, the file system's read-ahead and write-behind daemons serve a
// file scan, a parallel make rebuilds a package tree, and the mouse
// clicks between windows — all sharing the one MBus, exactly the
// coarse-grained concurrency story of §2 ("workstation users like to
// keep several activities running at once").
package main

import (
	"fmt"
	"strings"

	"firefly"
	"firefly/internal/display"
	"firefly/internal/fs"
	"firefly/internal/qbus"
	"firefly/internal/topaz"
	"firefly/internal/trestle"
	"firefly/internal/workload"
)

func main() {
	// --- hardware: 5 CPUs, MDC, disk behind the QBus DMA engine ---
	m := firefly.NewMicroVAX(5)
	mdc := display.New(m.Clock(), m.Bus(), m.Memory(), display.Config{})
	m.AddDevice(mdc)
	maps := &qbus.MapRegisters{}
	engine := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
	m.AddDevice(engine)
	disk := qbus.NewDisk(m.Clock(), m.Bus(), engine, qbus.DiskConfig{SeekCycles: 3000})
	m.AddDevice(disk)
	maps.MapRange(0, 0x700000, 1<<16)

	// --- software: Topaz, the file system daemons, Trestle ---
	k := firefly.Boot(m, firefly.KernelConfig{Quantum: 1500, Dispatch: topaz.MigrationAverse{}})
	f := fs.New(k, disk, m.Memory(), maps, fs.Config{}, nil)
	wm := trestle.New(mdc)

	shell := wm.Create("shell", display.Rect{X: 20, Y: 20, W: 360, H: 200})
	mail := wm.Create("mail", display.Rect{X: 200, Y: 120, W: 360, H: 220})
	buildWin := wm.Create("make", display.Rect{X: 420, Y: 40, W: 320, H: 180})

	// A file on disk for the scan.
	for lba := uint32(0); lba < 24; lba++ {
		words := make([]uint32, fs.BlockWords)
		for w := range words {
			words[w] = lba<<8 | uint32(w)
		}
		disk.LoadSector(lba, words)
	}

	// --- the user's concurrent activities ---
	var scan fs.ReadResult
	k.Fork(fs.ReadSequentialProgram(f, 0, 24, 500, &scan), firefly.ThreadSpec{Name: "file-scan"}, nil)

	// The build: RunMake forks one thread per target and pumps the
	// machine until the DAG completes — the scan, the FS daemons, and the
	// MDC all advance on the same cycles.
	graph := workload.StandardBuild(6, 25_000)
	res := workload.RunMake(k, graph, 800_000_000)

	// Let the file scan finish if the build beat it.
	for i := 0; i < 10_000 && !scan.Done; i++ {
		m.Run(20_000)
	}
	wm.SetText(buildWin, []string{
		fmt.Sprintf("%d targets built", len(res.Finished)),
		fmt.Sprintf("%.1f ms", float64(res.Cycles)/1e4),
	})
	wm.SetText(shell, []string{"$ scan /src/topaz", fmt.Sprintf("%d blocks read", len(scan.Blocks))})
	wm.SetText(mail, []string{"From: taylor", "Subject: Firefly status", "", "Ship it."})

	// The user clicks the mail window; Trestle raises and focuses it.
	mdc.SetMouse(300, 200)
	wm.RouteMouseClick(300, 200)

	// Let the MDC drain its queue (and keep depositing input records).
	for mdc.Pending() > 0 {
		m.Run(20_000)
	}

	// --- report ---
	fmt.Println("Workstation session on a 5-CPU Firefly")
	fmt.Println()
	fmt.Printf("windows: %s\n", wm.Layout())
	fmt.Printf("focus:   %q (raised by the mouse click at 300,200)\n", wm.Focus().Title())
	fmt.Println()
	fmt.Printf("build:   %d targets in %.1f ms (ok=%v): %s...\n",
		len(res.Finished), float64(res.Cycles)/1e4, res.OK,
		strings.Join(res.Finished[:3], ", "))
	st := f.Stats()
	fmt.Printf("file:    %d blocks scanned, read-ahead hits %d, write-behinds %d\n",
		len(scan.Blocks), st.ReadAheadHit, st.WriteBehinds)
	dst := mdc.Stats()
	fmt.Printf("display: %d commands, %d pixels painted, %d input deposits\n",
		dst.Commands.Value(), dst.PixelsPainted.Value(), dst.Deposits.Value())
	rep := m.Report()
	fmt.Printf("machine: bus load L=%.2f over %.1f ms, %d context switches, %d migrations\n",
		rep.BusLoad, rep.Seconds*1000, k.Stats().ContextSwitches, k.Stats().Migrations)
	fmt.Println()
	fmt.Println("Everything above shared one MBus: CPU fills and write-throughs,")
	fmt.Println("the MDC's queue polling and BitBlt traffic, the disk DMA, and the")
	fmt.Println("60 Hz input deposits — the machine the paper set out to build.")
}
