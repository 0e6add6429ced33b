package experiments

import (
	"fmt"

	"firefly/internal/fs"
	"firefly/internal/machine"
	"firefly/internal/qbus"
	"firefly/internal/stats"
	"firefly/internal/topaz"
)

// FileIO measures the Topaz file system's daemon threads (§6: "The file
// system uses multiple threads to do read-ahead and write-behind"): a
// sequential file scan with read-ahead on and off, and a burst of writes
// with write-behind against synchronous write-through.
func FileIO(o Options) Outcome {
	blocks := uint32(o.Budget.cycles(30, 120))
	maxCycles := o.Budget.cycles(300_000_000, 3_000_000_000)

	scan := func(readAhead int) (elapsed uint64, st fs.Stats) {
		m := machine.New(machine.MicroVAXConfig(2))
		k := topaz.NewKernel(m, topaz.Config{Quantum: 1500})
		maps := &qbus.MapRegisters{}
		engine := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
		m.AddDevice(engine)
		disk := qbus.NewDisk(m.Clock(), m.Bus(), engine, qbus.DiskConfig{SeekCycles: 3000})
		m.AddDevice(disk)
		maps.MapRange(0, 0x700000, 1<<16)
		f := fs.New(k, disk, m.Memory(), maps, fs.Config{ReadAhead: readAhead}, nil)
		for lba := uint32(0); lba < blocks; lba++ {
			words := make([]uint32, fs.BlockWords)
			for w := range words {
				words[w] = lba + uint32(w)
			}
			disk.LoadSector(lba, words)
		}
		var res fs.ReadResult
		k.Fork(fs.ReadSequentialProgram(f, 0, blocks, 200, &res),
			topaz.ThreadSpec{Name: "scanner"}, nil)
		start := m.Clock().Now()
		m.RunUntil(func() bool { return res.Done }, maxCycles)
		return uint64(m.Clock().Now() - start), f.Stats()
	}

	writeRun := func(writeThrough bool) uint64 {
		m := machine.New(machine.MicroVAXConfig(2))
		k := topaz.NewKernel(m, topaz.Config{Quantum: 1500})
		maps := &qbus.MapRegisters{}
		engine := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
		m.AddDevice(engine)
		disk := qbus.NewDisk(m.Clock(), m.Bus(), engine, qbus.DiskConfig{SeekCycles: 3000})
		m.AddDevice(disk)
		maps.MapRange(0, 0x700000, 1<<16)
		f := fs.New(k, disk, m.Memory(), maps, fs.Config{WriteThrough: writeThrough}, nil)
		var res fs.WriteResult
		k.Fork(fs.WriteSequentialProgram(f, 0, blocks/3, 100, &res),
			topaz.ThreadSpec{Name: "writer"}, nil)
		start := m.Clock().Now()
		m.RunUntil(func() bool { return res.Done }, maxCycles)
		return uint64(m.Clock().Now() - start)
	}

	noRA, _ := scan(-1)
	withRA, stRA := scan(4)
	behind := writeRun(false)
	through := writeRun(true)

	t := stats.NewTable(fmt.Sprintf("File system daemons (%d-block sequential scan, %d-block write burst)", blocks, blocks/3),
		"configuration", "client Mcycles", "speedup")
	t.AddRow("scan, no read-ahead", fmt.Sprintf("%.2f", float64(noRA)/1e6), "1.00")
	t.AddRow("scan, read-ahead 4", fmt.Sprintf("%.2f", float64(withRA)/1e6),
		fmt.Sprintf("%.2f", float64(noRA)/float64(withRA)))
	t.AddRow("writes, write-through", fmt.Sprintf("%.2f", float64(through)/1e6), "1.00")
	t.AddRow("writes, write-behind", fmt.Sprintf("%.2f", float64(behind)/1e6),
		fmt.Sprintf("%.2f", float64(through)/float64(behind)))

	text := t.String() + fmt.Sprintf(`
With read-ahead, %d of %d blocks were already in flight or resident
when the scanner asked (speculative fetches: %d), so the client's wait
per block collapsed from a full seek-plus-transfer to nearly nothing;
the write-behind daemon absorbed the burst so the writer never waited
for the disk. Both daemons are ordinary Topaz threads overlapping I/O
with the application — "the file system uses multiple threads to do
read-ahead and write-behind" (§6), and on a multiprocessor they run on
other processors outright.
`, stRA.ReadAheadHit, blocks, stRA.ReadAheads)
	return Outcome{ID: "fileio", Title: "File system read-ahead / write-behind", Text: text}
}
