package stats

import "math/bits"

// LogHist is a log-bucketed histogram for latency-style samples: values
// below logHistLinear land in exact unit buckets, larger values in
// buckets of 16 sub-steps per power of two (≤ ~6% relative bucket
// width), so p50/p95/p99 read within a few percent of exact while the
// whole structure is one fixed array — Observe is O(1) with zero
// allocations, which is what lets every RPC node keep one on the
// per-call completion path of a fleet-sized run.
//
// A LogHist of any value range costs the same 8 KB and two LogHists merge by element-wise
// addition, which is how the cluster aggregates per-member latency into
// fleet-wide percentiles.
type LogHist struct {
	counts [logHistBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
}

const (
	// logHistLinear is the exact-bucket region: samples < 32 get a
	// bucket each.
	logHistLinear = 32
	// logHistSub is the sub-bucket count per power of two above the
	// linear region.
	logHistSub = 16
	// logHistBuckets covers the full uint64 range: 32 exact buckets plus
	// 16 sub-buckets for each bit length 6..64.
	logHistBuckets = logHistLinear + (64-5)*logHistSub
)

// logHistIndex maps a sample to its bucket.
func logHistIndex(v uint64) int {
	if v < logHistLinear {
		return int(v)
	}
	n := bits.Len64(v) // 6..64: v >= 32
	// The top five bits of v select the sub-bucket: v>>(n-5) is in
	// [16,32) because bit n-1 is set.
	minor := int(v>>(uint(n)-5)) & (logHistSub - 1)
	return logHistLinear + (n-6)*logHistSub + minor
}

// logHistUpper returns the largest sample that lands in bucket idx.
func logHistUpper(idx int) uint64 {
	if idx < logHistLinear {
		return uint64(idx)
	}
	n := 6 + (idx-logHistLinear)/logHistSub
	minor := uint64((idx-logHistLinear)%logHistSub) + logHistSub
	if n == 64 && minor == 2*logHistSub-1 {
		return ^uint64(0) // (32 << 59) would wrap
	}
	return (minor+1)<<(uint(n)-5) - 1
}

// Observe records one sample. It never allocates.
func (h *LogHist) Observe(v uint64) {
	h.counts[logHistIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *LogHist) Count() uint64 { return h.n }

// Sum returns the sum of all samples.
func (h *LogHist) Sum() uint64 { return h.sum }

// Max returns the largest sample observed (0 with no samples).
func (h *LogHist) Max() uint64 { return h.max }

// Mean returns the mean sample, or 0 with no samples.
func (h *LogHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Percentile returns an upper bound on the p'th percentile (p in [0,1]):
// the top of the smallest bucket prefix covering fraction p of the
// samples, within one bucket width (~6%) of the exact order statistic.
// With no samples it returns 0.
func (h *LogHist) Percentile(p float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	need := uint64(p * float64(h.n))
	if float64(need) < p*float64(h.n) || need == 0 {
		need++ // ceil, floored at one sample
	}
	if need > h.n {
		need = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= need {
			return logHistUpper(i)
		}
	}
	return h.max // unreachable: counts sum to n
}

// Merge adds every sample of o into h. Merging preserves percentiles
// exactly as if all samples had been observed on h (bucket boundaries
// are global constants).
func (h *LogHist) Merge(o *LogHist) {
	if o == nil || o.n == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset clears the histogram.
func (h *LogHist) Reset() {
	*h = LogHist{}
}
