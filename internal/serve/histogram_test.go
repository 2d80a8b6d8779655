package serve

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		obs  []float64
		q    float64
		want float64 // NaN means "expect NaN"
	}{
		{name: "empty", q: 0.5, want: math.NaN()},
		{name: "single q0", obs: []float64{0.001}, q: 0, want: 0.0016},
		{name: "single q1", obs: []float64{0.001}, q: 1, want: 0.0016},
		// Every observation sits above the first bucket: q = 0 must report
		// the lowest occupied bucket, not the 100 µs floor.
		{name: "all large q0", obs: []float64{0.5, 0.5, 0.5}, q: 0, want: 0.8192},
		{name: "all large q0.5", obs: []float64{0.5, 0.5, 0.5}, q: 0.5, want: 0.8192},
		{name: "mixed q0", obs: []float64{0.00005, 0.003, 100}, q: 0, want: 0.0001},
		{name: "mixed q0.33", obs: []float64{0.00005, 0.003, 100}, q: 0.33, want: 0.0001},
		{name: "mixed q0.34", obs: []float64{0.00005, 0.003, 100}, q: 0.34, want: 0.0032},
		{name: "mixed q0.5", obs: []float64{0.00005, 0.003, 100}, q: 0.5, want: 0.0032},
		{name: "mixed q1", obs: []float64{0.00005, 0.003, 100}, q: 1, want: inf},
		{name: "bucket bound inclusive", obs: []float64{0.0002}, q: 0.5, want: 0.0002},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var h Histogram
			for _, v := range c.obs {
				h.Observe(v)
			}
			got := h.Quantile(c.q)
			if math.IsNaN(c.want) {
				if !math.IsNaN(got) {
					t.Fatalf("Quantile(%v) = %v, want NaN", c.q, got)
				}
				return
			}
			if got != c.want {
				t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
			}
		})
	}
}

func TestHistogramWritePrometheus(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.00005, 0.003, 0.003, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := h.WritePrometheus(&b, "x_seconds"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != len(latencyBuckets)+3 {
		t.Fatalf("%d lines, want %d buckets + Inf + sum + count", len(lines), len(latencyBuckets)+3)
	}
	var cum int64
	for i, ub := range latencyBuckets {
		cum += h.counts[i]
		// strconv's shortest form is what cdpfgw rendered before the two
		// tiers shared this type; the exposition must not change.
		want := "x_seconds_bucket{le=\"" + strconv.FormatFloat(ub, 'g', -1, 64) + "\"} " + strconv.FormatInt(cum, 10)
		if lines[i] != want {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want)
		}
	}
	tail := lines[len(latencyBuckets):]
	want := []string{`x_seconds_bucket{le="+Inf"} 4`, "x_seconds_sum 100.00605", "x_seconds_count 4"}
	for i := range want {
		if tail[i] != want[i] {
			t.Fatalf("tail line %d = %q, want %q", i, tail[i], want[i])
		}
	}
}
