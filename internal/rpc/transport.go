package rpc

import (
	"fmt"

	"firefly/internal/sim"
	"firefly/internal/stats"
)

// Config calibrates the transport pipeline. Durations are in MBus cycles
// (100 ns); defaults reproduce the MicroVAX-era Topaz RPC measurements.
type Config struct {
	// PayloadBytes is the data carried per call (default 1024: the data
	// transfer protocol's fragment).
	PayloadBytes int

	// ClientFixedCycles + ClientPerByteCentiCycles/100 cycles per byte is
	// the client-side cost per call: stub, marshal, buffer handoff.
	// Default 1500 + 12.4 cycles/byte (the MicroVAX marshalling path
	// copies at roughly 0.8 MB/s).
	ClientFixedCycles        uint64
	ClientPerByteCentiCycles uint64

	// WireFixedCycles covers framing, device start-up (the interprocessor
	// interrupt to the I/O processor), and turnaround. The per-bit cost is
	// the 10 Mbit/s Ethernet itself. Default 2300.
	WireFixedCycles uint64

	// ServerFixedCycles + ServerPerByteCentiCycles/100 cycles per byte is
	// the server-side cost: receive interrupt, unmarshal, the procedure
	// itself, reply marshal and acknowledgment turnaround. Per-connection
	// processing is serialized (the transfer protocol delivers fragments
	// in order), so this stage is the pipeline's bottleneck: with the
	// default 2500 + 14.95 cycles/byte and 1 KB fragments it serves one
	// call per ~1.78 ms — 4.6 Mbit/s of payload.
	ServerFixedCycles        uint64
	ServerPerByteCentiCycles uint64

	// ReplyWireCycles and ClientFinishCycles close the call. Defaults
	// 1200 and 800.
	ReplyWireCycles    uint64
	ClientFinishCycles uint64
}

func (c Config) withDefaults() Config {
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 1024
	}
	if c.ClientFixedCycles == 0 {
		c.ClientFixedCycles = 1500
	}
	if c.ClientPerByteCentiCycles == 0 {
		c.ClientPerByteCentiCycles = 1240
	}
	if c.WireFixedCycles == 0 {
		c.WireFixedCycles = 2300
	}
	if c.ServerFixedCycles == 0 {
		c.ServerFixedCycles = 2500
	}
	if c.ServerPerByteCentiCycles == 0 {
		c.ServerPerByteCentiCycles = 1495
	}
	if c.ReplyWireCycles == 0 {
		c.ReplyWireCycles = 1200
	}
	if c.ClientFinishCycles == 0 {
		c.ClientFinishCycles = 800
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PayloadBytes < 0 || c.PayloadBytes > MaxPayload {
		return fmt.Errorf("rpc: payload %d out of range", c.PayloadBytes)
	}
	return nil
}

// ServerServiceCycles is the nominal server-station cost of one call
// with the given payload: the per-connection serialized stage the
// runtime's workers charge (before any per-procedure extra from
// NodeConfig.ProcService). The traffic engine's queuing model uses it as
// the service time of each server node.
func (c Config) ServerServiceCycles(payloadBytes int) uint64 {
	c = c.withDefaults()
	return c.ServerFixedCycles + c.ServerPerByteCentiCycles*uint64(payloadBytes)/100
}

// station is a FIFO server: one request at a time, served in the order
// the requests were queued.
type station struct {
	busyUntil sim.Cycle
	busyTime  uint64
}

// acquire queues a request of duration cycles arriving at now behind
// every earlier request and returns the cycle its service ends.
func (s *station) acquire(now sim.Cycle, duration uint64) sim.Cycle {
	s.busyUntil = max(now, s.busyUntil) + sim.Cycle(duration)
	s.busyTime += duration
	return s.busyUntil
}

// utilization returns the fraction of elapsed time the station was busy.
func (s *station) utilization(elapsed sim.Cycle) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(s.busyTime) / float64(uint64(elapsed))
}

// pipelineCall is one client thread's in-flight call: the pipeline stage
// it is queued on, the cycle that stage ends, and the order in which the
// stage was queued, which breaks ties between stages ending on the same
// cycle.
type pipelineCall struct {
	stage   int
	end     sim.Cycle // sim.Never once the thread has stopped issuing
	seq     uint64
	started sim.Cycle
	id      uint32
	buf     []byte // the marshalled request the server unmarshals
}

// Result summarizes one transport run.
type Result struct {
	Threads       int
	SimSeconds    float64
	Calls         uint64
	BytesMoved    uint64
	Mbps          float64 // payload megabits per second sustained
	MeanLatencyUS float64 // mean per-call latency in microseconds
	P50US         float64 // median per-call latency (log-bucket upper bound)
	P95US         float64
	P99US         float64
	WireUtil      float64
	ServerUtil    float64
	ClientUtil    float64
	MarshalledOK  uint64 // messages that survived the marshal round trip
	MarshalledBad uint64 // must be zero
}

// Run drives the transport with the given number of client threads
// (outstanding calls) for the given simulated time.
func Run(cfg Config, threads int, seconds float64) Result {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if threads < 1 {
		panic("rpc: need at least one client thread")
	}
	var client, wire, server station
	deadline := sim.Cycle(seconds * 1e9 / sim.CycleNS)
	res := Result{Threads: threads, SimSeconds: seconds}
	var latencySum uint64
	var latencies stats.LogHist
	var nextID uint32

	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	perByte := func(centi uint64) uint64 {
		return centi * uint64(cfg.PayloadBytes) / 100
	}
	// Every call passes through these stations in order. At 10 Mbit/s
	// one bit takes exactly one 100 ns cycle.
	stages := [...]struct {
		st     *station
		cycles uint64
	}{
		{&client, cfg.ClientFixedCycles + perByte(cfg.ClientPerByteCentiCycles)},
		{&wire, cfg.WireFixedCycles + (&Message{Payload: payload}).WireBits()},
		{&server, cfg.ServerFixedCycles + perByte(cfg.ServerPerByteCentiCycles)},
		{&wire, cfg.ReplyWireCycles},
		{&client, cfg.ClientFinishCycles},
	}
	var seq uint64
	enter := func(c *pipelineCall, stage int, now sim.Cycle) {
		c.stage = stage
		c.end = stages[stage].st.acquire(now, stages[stage].cycles)
		c.seq = seq
		seq++
	}
	// issue starts the thread's next call at now, or stops the thread
	// once the deadline has passed.
	issue := func(c *pipelineCall, now sim.Cycle) {
		if now >= deadline {
			c.end = sim.Never
			return
		}
		nextID++
		msg := &Message{Kind: Call, ID: nextID, Proc: 7, Payload: payload}
		buf, err := msg.Marshal()
		if err != nil {
			panic(err)
		}
		c.started, c.id, c.buf = now, nextID, buf
		enter(c, 0, now)
	}

	calls := make([]pipelineCall, threads)
	for i := range calls {
		issue(&calls[i], 0)
	}
	for {
		// The stage ending first completes next; stages ending on the
		// same cycle complete in the order they were queued.
		var c *pipelineCall
		for i := range calls {
			x := &calls[i]
			if x.end <= deadline && (c == nil || x.end < c.end || x.end == c.end && x.seq < c.seq) {
				c = x
			}
		}
		if c == nil {
			break
		}
		now := c.end
		switch c.stage {
		case 1:
			// The request is off the wire. The server unmarshals the
			// actual bytes; a failure here is a transport bug, counted
			// loudly.
			if got, err := Unmarshal(c.buf); err != nil || got.ID != c.id || len(got.Payload) != len(payload) {
				res.MarshalledBad++
			} else {
				res.MarshalledOK++
			}
		case len(stages) - 1:
			res.Calls++
			res.BytesMoved += uint64(cfg.PayloadBytes)
			latencySum += uint64(now - c.started)
			latencies.Observe(uint64(now - c.started))
			issue(c, now)
			continue
		}
		enter(c, c.stage+1, now)
	}

	elapsed := deadline
	// A zero-length or call-free run must report zeros, not NaN: with
	// elapsed == 0 the Mbps division is 0/0, and every percentile of an
	// empty histogram is defined as 0.
	if elapsed > 0 {
		res.Mbps = float64(res.BytesMoved*8) / (float64(elapsed.NS()) * 1e-9) / 1e6
	}
	if res.Calls > 0 {
		res.MeanLatencyUS = float64(latencySum) / float64(res.Calls) * 0.1
	}
	res.P50US = CyclesToUS(latencies.Percentile(0.50))
	res.P95US = CyclesToUS(latencies.Percentile(0.95))
	res.P99US = CyclesToUS(latencies.Percentile(0.99))
	res.WireUtil = wire.utilization(elapsed)
	res.ServerUtil = server.utilization(elapsed)
	res.ClientUtil = client.utilization(elapsed)
	return res
}

// Sweep runs the transport at each thread count.
func Sweep(cfg Config, threadCounts []int, seconds float64) []Result {
	out := make([]Result, len(threadCounts))
	for i, n := range threadCounts {
		out[i] = Run(cfg, n, seconds)
	}
	return out
}
