package machine

import (
	"fmt"
	"strings"

	"firefly/internal/stats"
)

// CPUReport summarizes one processor's activity over a measurement
// interval, in the categories of the paper's Table 2.
type CPUReport struct {
	Instructions uint64
	TPI          float64
	// Reads, Writes, Total are CPU reference rates in refs/sec.
	Reads, Writes, Total float64
	MissRate             float64
	DirtyFraction        float64
	// MBus reference rates (refs/sec): reads (fills), writes that received
	// MShared, writes that did not, and victim writes.
	MBusReads        float64
	MBusWritesShared float64
	MBusWritesClean  float64
	MBusVictims      float64
	ProbeStalls      uint64
}

// Report summarizes a measurement interval for the whole machine.
type Report struct {
	Processors int
	Seconds    float64
	BusLoad    float64
	// MBusTotal is the total MBus operation rate (ops/sec).
	MBusTotal float64
	PerCPU    []CPUReport
	// PortWaits[i] is processor port i's arbitration wait cycles
	// (bus.portN.wait_cycles): cycles a requesting port was passed over
	// while another port won. The spread across ports is the arbitration
	// policy's fairness signature.
	PortWaits []uint64
	// PortOps[i] is processor port i's completed bus operations
	// (bus.portN.ops).
	PortOps []uint64
	// CPUService[i] is the thread instructions processor i executed
	// under a Topaz kernel (kernel.cpuN.service); nil when no kernel is
	// installed. Unlike the bus and CPU counters it is not cleared by
	// ResetStats — it accumulates over the kernel's lifetime.
	CPUService []uint64
	// ServiceFairness is the max/min ratio of CPUService across
	// processors: 1.0 is perfectly fair, +Inf marks a starved processor,
	// 0 means no kernel (or no service at all) so fairness is undefined.
	ServiceFairness float64
}

// Report computes rates over the interval since the last ResetStats (or
// machine construction). Every value is a view over the machine's
// statistics registry (see Registry); DirtyFraction alone is a gauge over
// live line states rather than a named counter.
func (m *Machine) Report() Report {
	reg := m.reg
	cycles := reg.MustValue("bus.cycles")
	secs := float64(cycles) * 100e-9
	r := Report{
		Processors: len(m.cpus),
		Seconds:    secs,
		BusLoad:    stats.Ratio(reg.MustValue("bus.busy_cycles"), cycles),
	}
	for i := range m.cpus {
		r.PortWaits = append(r.PortWaits, reg.MustValue(fmt.Sprintf("bus.port%d.wait_cycles", i)))
		r.PortOps = append(r.PortOps, reg.MustValue(fmt.Sprintf("bus.port%d.ops", i)))
	}
	if _, ok := reg.Value("kernel.cpu0.service"); ok {
		for i := range m.cpus {
			r.CPUService = append(r.CPUService, reg.MustValue(fmt.Sprintf("kernel.cpu%d.service", i)))
		}
		r.ServiceFairness = stats.MaxMinRatio(r.CPUService)
	}
	if secs == 0 {
		return r
	}
	r.MBusTotal = float64(reg.MustValue("bus.ops.total")) / secs
	for i := range m.cpus {
		cp := func(name string) uint64 { return reg.MustValue(fmt.Sprintf("cpu%d.%s", i, name)) }
		cc := func(name string) uint64 { return reg.MustValue(fmt.Sprintf("cache%d.%s", i, name)) }
		reads, writes := cp("reads"), cp("writes")
		cr := CPUReport{
			Instructions:     cp("instructions"),
			TPI:              stats.Ratio(cp("ticks"), cp("instructions")),
			Reads:            float64(reads) / secs,
			Writes:           float64(writes) / secs,
			Total:            float64(reads+writes) / secs,
			MissRate:         stats.Ratio(cc("read_misses")+cc("write_misses"), cc("reads")+cc("writes")),
			DirtyFraction:    m.caches[i].DirtyFraction(),
			MBusReads:        float64(cc("fill_ops")) / secs,
			MBusWritesShared: float64(cc("write_through_shared")) / secs,
			MBusWritesClean:  float64(cc("write_through_clean")) / secs,
			MBusVictims:      float64(cc("victim_writes")) / secs,
			ProbeStalls:      cp("probe_stalls"),
		}
		r.PerCPU = append(r.PerCPU, cr)
	}
	return r
}

// MeanCPU averages the per-CPU rows.
func (r Report) MeanCPU() CPUReport {
	var out CPUReport
	n := float64(len(r.PerCPU))
	if n == 0 {
		return out
	}
	for _, c := range r.PerCPU {
		out.Instructions += c.Instructions
		out.TPI += c.TPI
		out.Reads += c.Reads
		out.Writes += c.Writes
		out.Total += c.Total
		out.MissRate += c.MissRate
		out.DirtyFraction += c.DirtyFraction
		out.MBusReads += c.MBusReads
		out.MBusWritesShared += c.MBusWritesShared
		out.MBusWritesClean += c.MBusWritesClean
		out.MBusVictims += c.MBusVictims
		out.ProbeStalls += c.ProbeStalls
	}
	out.TPI /= n
	out.Reads /= n
	out.Writes /= n
	out.Total /= n
	out.MissRate /= n
	out.DirtyFraction /= n
	out.MBusReads /= n
	out.MBusWritesShared /= n
	out.MBusWritesClean /= n
	out.MBusVictims /= n
	return out
}

// TotalRefsPerSec returns the machine-wide CPU reference rate.
func (r Report) TotalRefsPerSec() float64 {
	var t float64
	for _, c := range r.PerCPU {
		t += c.Total
	}
	return t
}

// MeanTPI returns the average achieved TPI across processors.
func (r Report) MeanTPI() float64 { return r.MeanCPU().TPI }

// String renders a human-readable machine report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d-CPU system, %.3f simulated seconds, bus load L=%.2f\n",
		r.Processors, r.Seconds, r.BusLoad)
	mean := r.MeanCPU()
	fmt.Fprintf(&b, "Per CPU (K refs/sec): reads %.0f, writes %.0f, total %.0f (TPI %.1f, miss rate %.2f)\n",
		mean.Reads/1000, mean.Writes/1000, mean.Total/1000, mean.TPI, mean.MissRate)
	fmt.Fprintf(&b, "MBus per CPU (K refs/sec): reads %.0f, writes MShared %.0f, writes clean %.0f, victims %.0f\n",
		mean.MBusReads/1000, mean.MBusWritesShared/1000, mean.MBusWritesClean/1000, mean.MBusVictims/1000)
	fmt.Fprintf(&b, "MBus total: %.0f K ops/sec\n", r.MBusTotal/1000)
	if len(r.PortWaits) > 0 {
		fmt.Fprintf(&b, "Arbitration wait cycles by port: %v\n", r.PortWaits)
	}
	if r.CPUService != nil {
		fmt.Fprintf(&b, "Kernel service by CPU: %v (fairness max/min %.2f)\n",
			r.CPUService, r.ServiceFairness)
	}
	return b.String()
}
