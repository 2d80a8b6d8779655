package serve

import (
	"fmt"
	"io"
	"math"
)

// latencyBuckets are the histogram upper bounds in seconds: 100 µs to ~52 s
// in powers of two, wide enough for queueing delay under overload.
var latencyBuckets = func() []float64 {
	b := make([]float64, 20)
	ub := 100e-6
	for i := range b {
		b[i] = ub
		ub *= 2
	}
	return b
}()

// Histogram is a fixed-bucket latency histogram over latencyBuckets, in
// seconds. cdpfd's step latency and cdpfgw's park latency share it, so fleet
// dashboards can overlay the two without bucket gymnastics. Value semantics:
// callers copy it out under their own lock before rendering. The zero value
// is an empty histogram.
type Histogram struct {
	counts [21]int64 // len(latencyBuckets)+1, last bucket is +Inf
	sum    float64
}

// Observe records one latency of v seconds.
func (h *Histogram) Observe(v float64) {
	h.sum += v
	for i, ub := range latencyBuckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	h.counts[len(latencyBuckets)]++
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// (0..1) of the observations: NaN with none, +Inf past the last finite
// bucket. q = 0 reports the lowest occupied bucket.
func (h *Histogram) Quantile(q float64) float64 {
	var total int64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(latencyBuckets) {
				return latencyBuckets[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// WritePrometheus renders the histogram's sample lines (cumulative buckets,
// sum and count) under metric name; the caller writes HELP and TYPE.
func (h *Histogram) WritePrometheus(w io.Writer, name string) error {
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	var cum int64
	for i, ub := range latencyBuckets {
		cum += h.counts[i]
		p("%s_bucket{le=%q} %d\n", name, formatUpperBound(ub), cum)
	}
	cum += h.counts[len(latencyBuckets)]
	p("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	p("%s_sum %g\n", name, h.sum)
	p("%s_count %d\n", name, cum)
	return err
}

// formatUpperBound renders a bucket bound the way Prometheus clients do
// (shortest float form).
func formatUpperBound(ub float64) string {
	return fmt.Sprintf("%g", ub)
}
