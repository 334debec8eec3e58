package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a fixed-size log-bucketed latency histogram, safe for
// concurrent use and allocation-free on the Observe path. Buckets split
// each power-of-two range of microseconds into histSub linear
// sub-buckets, giving a worst-case quantile error of ~1/histSub of the
// value — plenty for the p50/p99/p999 reporting done by the load
// generator and experiment E14, with none of the coordination cost of an
// exact reservoir.
type Hist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumUs   atomic.Int64
	maxUs   atomic.Int64
}

const (
	// histSub sub-buckets per octave; histOctaves octaves cover
	// 1µs..2^histOctaves µs (~1.2 hours) — anything beyond clamps into
	// the last bucket.
	histSub     = 16
	histOctaves = 32
	histBuckets = histSub * histOctaves
)

// bucketOf maps a microsecond value to its bucket index.
func bucketOf(us int64) int {
	if us < histSub {
		// The first octave is exact: one bucket per microsecond.
		if us < 0 {
			us = 0
		}
		return int(us)
	}
	exp := 63 - bits.LeadingZeros64(uint64(us)) // floor(log2 us), >= 4
	// Top histSub-worth of value bits below the leading one select the
	// sub-bucket within the octave.
	sub := int((us >> (exp - 4)) & (histSub - 1))
	idx := (exp-3)*histSub + sub
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest microsecond value mapping to bucket i —
// quantiles report this lower bound, biasing conservatively low by at
// most one sub-bucket width.
func bucketLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := i/histSub + 3
	sub := i % histSub
	return (int64(1) << exp) | int64(sub)<<(exp-4)
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) {
	us := d.Microseconds()
	h.buckets[bucketOf(us)].Add(1)
	h.count.Add(1)
	h.sumUs.Add(us)
	for {
		old := h.maxUs.Load()
		if us <= old || h.maxUs.CompareAndSwap(old, us) {
			break
		}
	}
}

// Count returns the number of samples recorded.
func (h *Hist) Count() int64 { return h.count.Load() }

// MeanUs returns the mean sample in microseconds (0 when empty).
func (h *Hist) MeanUs() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumUs.Load()) / float64(n)
}

// MaxUs returns the largest sample observed, in microseconds.
func (h *Hist) MaxUs() int64 { return h.maxUs.Load() }

// QuantileUs returns the q-quantile (0 < q <= 1) in microseconds, or 0
// when the histogram is empty. Concurrent Observes during the scan can
// skew the answer by the in-flight samples; callers quiesce first when
// exactness matters.
func (h *Hist) QuantileUs(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			return bucketLow(i)
		}
	}
	return h.maxUs.Load()
}

// HistSnapshot is the serializable state of a Hist: a sparse bucket
// list plus the scalar moments. It is the shape per-machine histograms
// travel in through the opDebug introspection plane, and the input to
// Merge — cmd/opptrace pulls one per machine per method and folds them
// into cluster-wide distributions.
type HistSnapshot struct {
	Count   int64      `json:"count"`
	SumUs   int64      `json:"sum_us"`
	MaxUs   int64      `json:"max_us"`
	Buckets [][2]int64 `json:"buckets,omitempty"` // [bucket index, count], occupied buckets only
}

// Snapshot captures the histogram's current state. Concurrent Observes
// during the scan can skew the copy by the in-flight samples, same as
// QuantileUs; callers quiesce first when exactness matters.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		SumUs: h.sumUs.Load(),
		MaxUs: h.maxUs.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, [2]int64{int64(i), n})
		}
	}
	return s
}

// Merge folds a snapshot into h, adding its bucket counts and moments.
// Out-of-range bucket indices (a peer built with different histogram
// geometry) clamp into the last bucket rather than corrupting memory.
func (h *Hist) Merge(s HistSnapshot) {
	for _, b := range s.Buckets {
		i := b[0]
		if i < 0 {
			i = 0
		}
		if i >= histBuckets {
			i = histBuckets - 1
		}
		h.buckets[i].Add(b[1])
	}
	h.count.Add(s.Count)
	h.sumUs.Add(s.SumUs)
	for {
		old := h.maxUs.Load()
		if s.MaxUs <= old || h.maxUs.CompareAndSwap(old, s.MaxUs) {
			break
		}
	}
}

// String summarizes the distribution for logs: count, mean and the
// three tail quantiles the serving tier reports everywhere.
func (h *Hist) String() string {
	return fmt.Sprintf("{n=%d mean=%.1fµs p50=%dµs p99=%dµs p999=%dµs max=%dµs}",
		h.Count(), h.MeanUs(), h.QuantileUs(0.50), h.QuantileUs(0.99), h.QuantileUs(0.999), h.MaxUs())
}
