package fleet

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets covers 1µs × 2^i for i in [0, histBuckets): bucket 0 holds
// everything ≤ 1µs, the last bucket is open-ended above ~3 days — far more
// range than any served request and still just 40 words of state.
const histBuckets = 40

// Histogram is a fixed-bucket latency histogram with power-of-two bucket
// boundaries starting at 1µs. Observations are lock-free atomic adds, so
// every request on a hot serving path can record its latency; quantiles are
// read as the upper bound of the bucket where the cumulative count crosses
// the rank, which bounds the relative error by the 2× bucket width —
// plenty for p50/p90/p99 tail tracking, and it keeps snapshots allocation-
// light. The zero value is ready to use; safe for concurrent use.
type Histogram struct {
	counts   [histBuckets]atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64
	maxNanos atomic.Int64
}

// Observe records one latency. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
	for {
		cur := h.maxNanos.Load()
		if int64(d) <= cur || h.maxNanos.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// bucketOf maps a duration to its bucket: the number of bits in the
// microsecond count, clamped to the table.
func bucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	if us <= 1 {
		return 0
	}
	b := bits.Len64(us - 1) // smallest i with 2^i >= us
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	return time.Microsecond << uint(i)
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]) of the
// observed latencies: the upper edge of the bucket where the cumulative
// count reaches ⌈q·n⌉. Zero observations yield zero. The top bucket is
// open-ended, so its upper edge caps the answer at the recorded maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			upper := bucketUpper(i)
			if max := time.Duration(h.maxNanos.Load()); upper > max {
				return max
			}
			return upper
		}
	}
	return time.Duration(h.maxNanos.Load())
}

// HistogramSnapshot is the JSON-ready view of a Histogram for GET /stats:
// count, mean, quantile upper bounds and max, all in milliseconds.
type HistogramSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Snapshot reads the histogram's summary. Concurrent Observes may land
// between the atomic reads; each field is individually consistent, which is
// all a monitoring endpoint needs.
func (h *Histogram) Snapshot() HistogramSnapshot {
	n := h.count.Load()
	s := HistogramSnapshot{
		Count: n,
		P50MS: ms(h.Quantile(0.50)),
		P90MS: ms(h.Quantile(0.90)),
		P99MS: ms(h.Quantile(0.99)),
		MaxMS: ms(time.Duration(h.maxNanos.Load())),
	}
	if n > 0 {
		s.MeanMS = ms(time.Duration(h.sumNanos.Load() / int64(n)))
	}
	return s
}

// ms converts a duration to float milliseconds for the wire.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
