package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the owning log's epoch; Parent indexes the op's span list (-1 for
// the op's root). HTTP spans carry the request's X-Request-Id.
type span struct {
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	RID    string `json:"rid,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog records the spans of one op from sequential code: begin pushes,
// end pops, so parents follow the call nesting.
type spanLog struct {
	epoch time.Time
	spans []span
	open  []int
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

func (l *spanLog) begin(name string) int {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Parent: parent, Name: name, Start: l.now()})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

func (l *spanLog) end(id int) {
	l.spans[id].End = l.now()
	l.open = l.open[:len(l.open)-1]
}

// layerAgg accumulates one span name over many ops.
type layerAgg struct {
	N    int
	Dur  int64
	Durs []float64 // per-span durations, ns
}

// ledger aggregates the spans of a traced segment by layer name and checks
// that the self times along each op's blocking path add up to the op.
type ledger struct {
	layers map[string]*layerAgg
	// unattributed holds, per op, the self time of its container spans as
	// a share of the op: the part of the op no layer span covers.
	unattributed []float64
	all          []span
}

func newLedger() *ledger { return &ledger{layers: map[string]*layerAgg{}} }

// add folds one op's span tree (index 0 is the root) into the ledger.
func (g *ledger) add(opID int, spans []span) {
	if len(spans) == 0 {
		return
	}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	for _, s := range spans {
		a := g.layers[s.Name]
		if a == nil {
			a = &layerAgg{}
			g.layers[s.Name] = a
		}
		a.N++
		a.Dur += s.dur()
		a.Durs = append(a.Durs, float64(s.dur()))
		s.Op = opID
		g.all = append(g.all, s)
	}
	if root := spans[0].dur(); root > 0 {
		var un int64
		for i, s := range spans {
			if isContainer(s.Name) {
				un += s.dur() - child[i]
			}
		}
		g.unattributed = append(g.unattributed, float64(un)/float64(root))
	}
}

func (g *ledger) layer(name string) *layerAgg {
	if a := g.layers[name]; a != nil {
		return a
	}
	return &layerAgg{}
}

// meanMs is the mean span duration of a layer in milliseconds (0 when the
// layer saw no spans).
func (g *ledger) meanMs(name string) float64 {
	a := g.layer(name)
	if a.N == 0 {
		return 0
	}
	return float64(a.Dur) / float64(a.N) / 1e6
}

// medianMs is the median span duration of a layer in milliseconds.
func (g *ledger) medianMs(name string) float64 {
	return quantile(g.layer(name).Durs, 50) / 1e6
}

// share is the total time of the named layers over the total op time.
func (g *ledger) share(root string, names ...string) float64 {
	total := g.layer(root).Dur
	if total == 0 {
		return 0
	}
	var sum int64
	for _, n := range names {
		sum += g.layer(n).Dur
	}
	return float64(sum) / float64(total)
}

// write dumps every span as JSON lines.
func (g *ledger) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range g.all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the nearest-rank p-th percentile of xs (0 for none).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// beyond reports how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - max(1, int(math.Ceil(p/100*float64(n))))
}

func median(xs []float64) float64 { return quantile(xs, 50) }
