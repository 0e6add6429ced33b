// Package fs models the Topaz file system's storage path (§3 footnote,
// §6): "the disk is buffered from applications by a large read cache and
// a large write buffer" and "the file system uses multiple threads to do
// read-ahead and write-behind."
//
// The block cache sits between client threads and the RQDX3 disk
// controller: reads hit the cache or block on a condition variable while
// a fetch daemon thread drives the disk; writes land in the cache and
// return immediately, with a write-behind daemon flushing dirty blocks;
// sequential read patterns trigger read-ahead so the next block is
// usually resident before the client asks. All of it runs as Topaz
// threads over the cycle simulator — the daemons really overlap disk
// latency with client computation, which is the multiprocessor benefit
// §6 claims.
package fs

import (
	"fmt"

	"firefly/internal/memory"
	"firefly/internal/qbus"
	"firefly/internal/topaz"
)

// BlockWords is the block size in longwords (one disk sector).
const BlockWords = 128

// Stats counts cache activity.
type Stats struct {
	Hits         uint64
	Misses       uint64
	ReadAheads   uint64 // blocks fetched speculatively
	ReadAheadHit uint64 // client reads satisfied by a speculative fetch
	WriteBehinds uint64 // dirty blocks flushed by the daemon
	Evictions    uint64
}

// block is one cached sector.
type block struct {
	data     []uint32
	dirty    bool
	lastUse  uint64
	fromRA   bool // arrived via read-ahead, not yet claimed by a client
	flushing bool
}

// Config tunes the cache.
type Config struct {
	// CacheBlocks is the cache capacity (default 32 — "a large read
	// cache" at sector scale).
	CacheBlocks int
	// ReadAhead is the number of blocks fetched speculatively after a
	// sequential pattern (0 selects the default of 4; negative disables).
	ReadAhead int
	// WriteThrough disables write-behind: writes block until the sector
	// is on the disk. The ablation knob.
	WriteThrough bool
}

// bufferQAddr is the QBus window used for the daemons' DMA (two sector
// buffers). It must be mapped before use.
const bufferQAddr uint32 = 0

func (c Config) withDefaults() Config {
	if c.CacheBlocks == 0 {
		c.CacheBlocks = 32
	}
	if c.ReadAhead == 0 {
		c.ReadAhead = 4
	}
	return c
}

// FS is the block cache plus its daemon threads.
type FS struct {
	cfg  Config
	disk *qbus.Disk
	k    *topaz.Kernel
	mem  *memory.System
	maps *qbus.MapRegisters

	// Mu guards every field below; CvData signals block arrivals and
	// flush completions.
	Mu     *topaz.Mutex
	CvData *topaz.CondVar

	cache    map[uint32]*block
	fetchQ   []uint32
	fetching map[uint32]bool
	specQ    map[uint32]bool // queued fetch was speculative (read-ahead)
	lastSeq  uint32          // last sequentially-read LBA + 1
	useClock uint64

	stopped bool
	stats   Stats

	// daemon-side DMA completion flags (host state; the daemons poll
	// with Sleep, standing in for the controller interrupt).
	ioDone  bool
	ioDone2 bool
}

// New builds the file system over a disk and forks its two daemons into
// the given address space (nil for a fresh one). mem and maps give the
// daemons access to their DMA buffers (two sectors at bufferQAddr,
// which must already be mapped).
func New(k *topaz.Kernel, disk *qbus.Disk, mem *memory.System, maps *qbus.MapRegisters, cfg Config, space *topaz.AddressSpace) *FS {
	cfg = cfg.withDefaults()
	f := &FS{
		cfg:      cfg,
		disk:     disk,
		k:        k,
		mem:      mem,
		maps:     maps,
		Mu:       k.NewMutex("fs"),
		CvData:   k.NewCond("fs-data"),
		cache:    make(map[uint32]*block),
		fetching: make(map[uint32]bool),
		specQ:    make(map[uint32]bool),
	}
	if space == nil {
		space = k.NewSpace("fs", false)
	}
	k.Fork(f.fetchDaemon(), topaz.ThreadSpec{Name: "fs-readahead", WorkingSetLines: 16}, space)
	k.Fork(f.flushDaemon(), topaz.ThreadSpec{Name: "fs-writebehind", WorkingSetLines: 16}, space)
	return f
}

// Stats returns a snapshot of the counters.
func (f *FS) Stats() Stats { return f.stats }

// Stop asks the daemons to exit once idle.
func (f *FS) Stop() { f.stopped = true }

// DirtyBlocks returns the number of unflushed blocks.
func (f *FS) DirtyBlocks() int {
	n := 0
	for _, b := range f.cache {
		if b.dirty {
			n++
		}
	}
	return n
}

// --- client-side operations (call under Mu, from Call actions) ---

// TryRead returns the block if cached, marking recency. The client
// program's read loop: Lock; TryRead; on miss RequestFetch and Wait on
// CvData; retry.
func (f *FS) TryRead(lba uint32) ([]uint32, bool) {
	b, ok := f.cache[lba]
	if !ok {
		return nil, false
	}
	f.useClock++
	b.lastUse = f.useClock
	if b.fromRA {
		b.fromRA = false
		f.stats.ReadAheadHit++
	}
	f.stats.Hits++
	f.noteSequential(lba)
	return append([]uint32(nil), b.data...), true
}

// RequestFetch queues a block fetch (idempotent) and accounts the miss.
func (f *FS) RequestFetch(lba uint32) {
	f.stats.Misses++
	f.queueFetch(lba, false)
	f.noteSequential(lba)
}

func (f *FS) queueFetch(lba uint32, speculative bool) {
	if _, ok := f.cache[lba]; ok {
		return
	}
	if f.fetching[lba] {
		return
	}
	f.fetching[lba] = true
	f.specQ[lba] = speculative
	f.fetchQ = append(f.fetchQ, lba)
	if speculative {
		f.stats.ReadAheads++
	}
}

// noteSequential tracks the access pattern and schedules read-ahead.
func (f *FS) noteSequential(lba uint32) {
	if f.cfg.ReadAhead > 0 && lba == f.lastSeq {
		for i := 1; i <= f.cfg.ReadAhead; i++ {
			f.queueFetch(lba+uint32(i), true)
		}
	}
	f.lastSeq = lba + 1
}

// Write installs block data in the cache, dirty, returning immediately
// (write-behind). With WriteThrough configured the caller must then wait
// until DirtyBlocks drops — see WriteProgram.
func (f *FS) Write(lba uint32, data []uint32) {
	if len(data) != BlockWords {
		panic(fmt.Sprintf("fs: block must be %d words, got %d", BlockWords, len(data)))
	}
	f.useClock++
	b, ok := f.cache[lba]
	if !ok {
		b = &block{data: make([]uint32, BlockWords)}
		f.cache[lba] = b
		f.evictIfNeeded()
	}
	copy(b.data, data)
	b.dirty = true
	b.lastUse = f.useClock
}

// install places fetched data into the cache (daemon side).
func (f *FS) install(lba uint32, data []uint32, speculative bool) {
	delete(f.fetching, lba)
	if b, ok := f.cache[lba]; ok {
		// A write raced the fetch; the cached (newer) data wins.
		_ = b
		return
	}
	f.useClock++
	f.cache[lba] = &block{
		data:    append([]uint32(nil), data...),
		lastUse: f.useClock,
		fromRA:  speculative,
	}
	f.evictIfNeeded()
}

// evictIfNeeded drops least-recently-used clean blocks down to capacity.
// Dirty blocks are never evicted (the flush daemon cleans them first), so
// the cache may transiently exceed capacity under write bursts — the
// "large write buffer" absorbing them.
func (f *FS) evictIfNeeded() {
	for len(f.cache) > f.cfg.CacheBlocks {
		var victim uint32
		var victimUse uint64
		found := false
		for lba, b := range f.cache {
			if b.dirty || b.flushing {
				continue
			}
			if !found || b.lastUse < victimUse || (b.lastUse == victimUse && lba < victim) {
				victim, victimUse, found = lba, b.lastUse, true
			}
		}
		if !found {
			return
		}
		delete(f.cache, victim)
		f.stats.Evictions++
	}
}

// pickDirty selects the oldest dirty block for write-behind.
func (f *FS) pickDirty() (uint32, *block, bool) {
	var lba uint32
	var chosen *block
	for l, b := range f.cache {
		if !b.dirty || b.flushing {
			continue
		}
		if chosen == nil || b.lastUse < chosen.lastUse || (b.lastUse == chosen.lastUse && l < lba) {
			lba, chosen = l, b
		}
	}
	return lba, chosen, chosen != nil
}

// --- daemons ---

const daemonSleep = 2_000 // 200 µs poll

// fetchDaemon drives disk reads for queued fetches (demand misses and
// read-ahead).
func (f *FS) fetchDaemon() topaz.Program {
	state := 0
	var lba uint32
	var speculative bool
	var data []uint32
	buf := bufferQAddr
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		switch state {
		case 0:
			state = 1
			return topaz.Lock{M: f.Mu}
		case 1:
			state = 2
			return topaz.Call{Fn: func() {
				if len(f.fetchQ) > 0 {
					lba = f.fetchQ[0]
					f.fetchQ = f.fetchQ[1:]
					speculative = f.specQ[lba]
					delete(f.specQ, lba)
					data = nil
				} else {
					lba = ^uint32(0)
				}
			}}
		case 2:
			state = 3
			return topaz.Unlock{M: f.Mu}
		case 3:
			if lba == ^uint32(0) {
				state = 0
				if f.stopped {
					return topaz.Exit{}
				}
				return topaz.Sleep{Cycles: daemonSleep}
			}
			// Start the disk read and poll for completion.
			f.ioDone = false
			f.disk.Read(lba, buf, func() { f.ioDone = true })
			state = 4
			return topaz.Sleep{Cycles: daemonSleep}
		case 4:
			if !f.ioDone {
				return topaz.Sleep{Cycles: daemonSleep}
			}
			// Pull the sector from the DMA buffer.
			data = f.readBuffer(buf)
			state = 5
			return topaz.Lock{M: f.Mu}
		case 5:
			state = 6
			return topaz.Call{Fn: func() { f.install(lba, data, speculative) }}
		case 6:
			state = 7
			return topaz.Broadcast{CV: f.CvData}
		case 7:
			state = 0
			return topaz.Unlock{M: f.Mu}
		default:
			return topaz.Exit{}
		}
	})
}

// flushDaemon writes dirty blocks behind the clients.
func (f *FS) flushDaemon() topaz.Program {
	state := 0
	var lba uint32
	var b *block
	var data []uint32
	buf := bufferQAddr + uint32(BlockWords*4)
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		switch state {
		case 0:
			state = 1
			return topaz.Lock{M: f.Mu}
		case 1:
			state = 2
			return topaz.Call{Fn: func() {
				var ok bool
				lba, b, ok = f.pickDirty()
				if ok {
					b.flushing = true
					data = append([]uint32(nil), b.data...)
				} else {
					b = nil
				}
			}}
		case 2:
			state = 3
			return topaz.Unlock{M: f.Mu}
		case 3:
			if b == nil {
				state = 0
				if f.stopped {
					return topaz.Exit{}
				}
				return topaz.Sleep{Cycles: daemonSleep}
			}
			f.writeBuffer(buf, data)
			f.ioDone2 = false
			f.disk.Write(lba, buf, func() { f.ioDone2 = true })
			state = 4
			return topaz.Sleep{Cycles: daemonSleep}
		case 4:
			if !f.ioDone2 {
				return topaz.Sleep{Cycles: daemonSleep}
			}
			state = 5
			return topaz.Lock{M: f.Mu}
		case 5:
			state = 6
			return topaz.Call{Fn: func() {
				b.flushing = false
				// A write during the flush re-dirtied the block; it will
				// be flushed again. Otherwise it is clean now.
				if sameWords(b.data, data) {
					b.dirty = false
				}
				f.stats.WriteBehinds++
				f.evictIfNeeded()
			}}
		case 6:
			state = 7
			return topaz.Broadcast{CV: f.CvData}
		case 7:
			state = 0
			return topaz.Unlock{M: f.Mu}
		default:
			return topaz.Exit{}
		}
	})
}

func sameWords(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// readBuffer pulls a sector out of the daemon DMA window.
func (f *FS) readBuffer(qaddr uint32) []uint32 {
	out := make([]uint32, BlockWords)
	for i := range out {
		phys, err := f.maps.Translate(qaddr + uint32(i*4))
		if err != nil {
			panic(fmt.Sprintf("fs: unmapped buffer: %v", err))
		}
		out[i] = f.mem.Peek(phys)
	}
	return out
}

// writeBuffer places a sector into the daemon DMA window.
func (f *FS) writeBuffer(qaddr uint32, data []uint32) {
	for i, w := range data {
		phys, err := f.maps.Translate(qaddr + uint32(i*4))
		if err != nil {
			panic(fmt.Sprintf("fs: unmapped buffer: %v", err))
		}
		f.mem.Poke(phys, w)
	}
}
