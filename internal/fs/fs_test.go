package fs

import (
	"testing"

	"firefly/internal/machine"
	"firefly/internal/qbus"
	"firefly/internal/topaz"
)

// bench is a machine with a disk, DMA plumbing, a kernel, and an FS.
type bench struct {
	m    *machine.Machine
	k    *topaz.Kernel
	disk *qbus.Disk
	f    *FS
}

func newBench(t testing.TB, nproc int, cfg Config) *bench {
	t.Helper()
	m := machine.New(machine.MicroVAXConfig(nproc))
	k := topaz.NewKernel(m, topaz.Config{Quantum: 1500})
	maps := &qbus.MapRegisters{}
	engine := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
	m.AddDevice(engine)
	disk := qbus.NewDisk(m.Clock(), m.Bus(), engine, qbus.DiskConfig{SeekCycles: 3000})
	m.AddDevice(disk)
	maps.MapRange(0, 0x700000, 1<<16)
	f := New(k, disk, m.Memory(), maps, cfg, nil)
	return &bench{m: m, k: k, disk: disk, f: f}
}

// loadDisk fills sectors with a recognizable pattern.
func (b *bench) loadDisk(start, count uint32) {
	for lba := start; lba < start+count; lba++ {
		words := make([]uint32, BlockWords)
		for w := range words {
			words[w] = lba*1000 + uint32(w)
		}
		b.disk.LoadSector(lba, words)
	}
}

func (b *bench) runUntil(t testing.TB, pred func() bool, budget uint64) {
	t.Helper()
	if !b.m.RunUntil(pred, budget) {
		t.Fatalf("condition not reached in %d cycles", budget)
	}
}

func TestSequentialReadCorrect(t *testing.T) {
	b := newBench(t, 2, Config{})
	b.loadDisk(10, 20)
	var res ReadResult
	b.k.Fork(ReadSequentialProgram(b.f, 10, 20, 500, &res), topaz.ThreadSpec{Name: "reader"}, nil)
	b.runUntil(t, func() bool { return res.Done }, 100_000_000)
	if len(res.Blocks) != 20 {
		t.Fatalf("read %d blocks", len(res.Blocks))
	}
	for i, blk := range res.Blocks {
		lba := uint32(10 + i)
		for w := 0; w < BlockWords; w += 37 {
			if blk[w] != lba*1000+uint32(w) {
				t.Fatalf("block %d word %d = %d", lba, w, blk[w])
			}
		}
	}
	st := b.f.Stats()
	if st.ReadAheads == 0 || st.ReadAheadHit == 0 {
		t.Fatalf("read-ahead never engaged: %+v", st)
	}
}

func TestReadAheadSpeedsSequentialScan(t *testing.T) {
	elapsed := func(ra int) uint64 {
		cfg := Config{ReadAhead: ra}
		if ra == 0 {
			cfg.ReadAhead = -1 // withDefaults treats 0 as unset
		}
		b := newBench(t, 2, cfg)
		b.loadDisk(0, 30)
		// Per-block compute roughly matches per-block disk time, the
		// regime where overlapping them (the whole point of read-ahead)
		// approaches a 2x win.
		var res ReadResult
		b.k.Fork(ReadSequentialProgram(b.f, 0, 30, 200, &res), topaz.ThreadSpec{Name: "reader"}, nil)
		start := b.m.Clock().Now()
		b.runUntil(t, func() bool { return res.Done }, 300_000_000)
		return uint64(b.m.Clock().Now() - start)
	}
	without := elapsed(0)
	with := elapsed(4)
	if with >= without {
		t.Fatalf("read-ahead did not help: with=%d without=%d", with, without)
	}
	// The daemons overlap seek+transfer with client compute; expect a
	// clear margin, not noise.
	if float64(without)/float64(with) < 1.3 {
		t.Fatalf("read-ahead speedup only %.2fx", float64(without)/float64(with))
	}
}

func TestWriteBehindReturnsImmediately(t *testing.T) {
	b := newBench(t, 2, Config{})
	var res WriteResult
	b.k.Fork(WriteSequentialProgram(b.f, 0, 8, 100, &res), topaz.ThreadSpec{Name: "writer"}, nil)
	b.runUntil(t, func() bool { return res.Done }, 50_000_000)
	// The client finished while flushes were still pending or just
	// starting; eventually the daemon drains them.
	b.runUntil(t, func() bool { return b.f.DirtyBlocks() == 0 }, 200_000_000)
	if b.f.Stats().WriteBehinds == 0 {
		t.Fatal("no write-behind flushes recorded")
	}
	// The data really reached the disk.
	sector := b.disk.PeekSector(3)
	if sector[5] != 3*1000+5 {
		t.Fatalf("flushed sector wrong: %d", sector[5])
	}
}

func TestWriteThroughSlower(t *testing.T) {
	elapsed := func(wt bool) uint64 {
		b := newBench(t, 2, Config{WriteThrough: wt})
		var res WriteResult
		b.k.Fork(WriteSequentialProgram(b.f, 0, 10, 100, &res), topaz.ThreadSpec{Name: "writer"}, nil)
		start := b.m.Clock().Now()
		b.runUntil(t, func() bool { return res.Done }, 400_000_000)
		return uint64(b.m.Clock().Now() - start)
	}
	behind := elapsed(false)
	through := elapsed(true)
	if through <= behind*2 {
		t.Fatalf("write-through %d not clearly slower than write-behind %d", through, behind)
	}
}

func TestReadYourWrites(t *testing.T) {
	b := newBench(t, 2, Config{})
	var wres WriteResult
	var rres ReadResult
	wh := &topaz.Handle{}
	b.k.Fork(topaz.Seq(
		topaz.Fork{Prog: WriteSequentialProgram(b.f, 40, 4, 0, &wres), Handle: wh},
		topaz.Join{Handle: wh},
	), topaz.ThreadSpec{Name: "w"}, nil)
	b.runUntil(t, func() bool { return wres.Done }, 50_000_000)
	b.k.Fork(ReadSequentialProgram(b.f, 40, 4, 0, &rres), topaz.ThreadSpec{Name: "r"}, nil)
	b.runUntil(t, func() bool { return rres.Done }, 50_000_000)
	if rres.Blocks[2][7] != 42*1000+7 {
		t.Fatalf("read-your-writes broken: %d", rres.Blocks[2][7])
	}
}

func TestSyncFlushesEverything(t *testing.T) {
	b := newBench(t, 2, Config{})
	var wres WriteResult
	synced := false
	b.k.Fork(WriteSequentialProgram(b.f, 0, 6, 0, &wres), topaz.ThreadSpec{Name: "w"}, nil)
	b.runUntil(t, func() bool { return wres.Done }, 50_000_000)
	b.k.Fork(SyncProgram(b.f, func() { synced = true }), topaz.ThreadSpec{Name: "sync"}, nil)
	b.runUntil(t, func() bool { return synced }, 400_000_000)
	if b.f.DirtyBlocks() != 0 {
		t.Fatal("sync returned with dirty blocks")
	}
	for lba := uint32(0); lba < 6; lba++ {
		if b.disk.PeekSector(lba)[1] != lba*1000+1 {
			t.Fatalf("sector %d not on disk after sync", lba)
		}
	}
}

func TestCacheEvictionBounded(t *testing.T) {
	b := newBench(t, 2, Config{CacheBlocks: 8, ReadAhead: -1})
	b.loadDisk(0, 40)
	var res ReadResult
	b.k.Fork(ReadSequentialProgram(b.f, 0, 40, 0, &res), topaz.ThreadSpec{Name: "reader"}, nil)
	b.runUntil(t, func() bool { return res.Done }, 400_000_000)
	if n := len(b.f.cache); n > 8 {
		t.Fatalf("cache grew to %d blocks (cap 8)", n)
	}
	if b.f.Stats().Evictions == 0 {
		t.Fatal("no evictions on a 40-block scan through an 8-block cache")
	}
}

func TestRereadHitsCache(t *testing.T) {
	b := newBench(t, 2, Config{})
	b.loadDisk(0, 4)
	var r1, r2 ReadResult
	b.k.Fork(ReadSequentialProgram(b.f, 0, 4, 0, &r1), topaz.ThreadSpec{Name: "r1"}, nil)
	b.runUntil(t, func() bool { return r1.Done }, 100_000_000)
	missesAfterFirst := b.f.Stats().Misses
	b.k.Fork(ReadSequentialProgram(b.f, 0, 4, 0, &r2), topaz.ThreadSpec{Name: "r2"}, nil)
	b.runUntil(t, func() bool { return r2.Done }, 100_000_000)
	if b.f.Stats().Misses != missesAfterFirst {
		t.Fatal("re-read missed the cache")
	}
}

func TestWriteWrongSizePanics(t *testing.T) {
	b := newBench(t, 1, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("short block accepted")
		}
	}()
	b.f.Write(0, make([]uint32, 3))
}
