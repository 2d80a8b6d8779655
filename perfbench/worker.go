package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mathx"
	"repro/internal/spec"
	"repro/internal/trace"
)

// request is one op sent to the worker process, one JSON object per line.
type request struct {
	Seq   int       `json:"seq"`
	Kind  string    `json:"kind"` // cell, fig56, panic, ping
	Axes  spec.Axes `json:"axes"`
	Trace bool      `json:"trace,omitempty"`
}

// response answers one request. CPUNs is the worker's cumulative CPU time
// (user + sys) after the op, so the supervisor can account CPU per window.
type response struct {
	Seq    int                `json:"seq"`
	Digest string             `json:"digest,omitempty"`
	Err    string             `json:"err,omitempty"`
	OpNs   int64              `json:"op_ns"`
	CPUNs  int64              `json:"cpu_ns"`
	Spans  []span             `json:"spans,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// roleEnv marks a process started as the benchmark's op worker.
const roleEnv = "PERFBENCH_ROLE"

// runWorker serves requests from in until EOF. A panic anywhere in an op —
// including a goroutine the op does not own — kills the process; the
// supervisor sees the broken pipe and counts the op as failed.
func runWorker(in io.Reader, out io.Writer) error {
	dec := json.NewDecoder(bufio.NewReader(in))
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	for {
		var req request
		if err := dec.Decode(&req); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("worker: decoding request: %w", err)
		}
		resp := handle(req)
		resp.Seq = req.Seq
		resp.CPUNs = int64(selfCPU())
		if err := enc.Encode(resp); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
}

func handle(req request) response {
	var resp response
	t0 := time.Now()
	var err error
	switch req.Kind {
	case "ping":
	case "panic":
		syntheticPanic()
	case "cell":
		if req.Trace {
			resp.Digest, resp.Spans, resp.Counts, err = tracedOp(t0, []spec.Axes{req.Axes})
		} else {
			resp.Digest, err = cellDigest(req.Axes)
		}
	case "fig56":
		runs := make([]spec.Axes, len(fig56Algos))
		for i, algo := range fig56Algos {
			runs[i] = req.Axes
			runs[i].Algo = algo
		}
		if req.Trace {
			resp.Digest, resp.Spans, resp.Counts, err = tracedOp(t0, runs)
		} else {
			resp.Digest, err = fig56Digest(runs)
		}
	default:
		err = fmt.Errorf("unknown op kind %q", req.Kind)
	}
	resp.OpNs = int64(time.Since(t0))
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// syntheticPanic panics in a goroutine the calling op does not own, the
// failure shape of a crash inside the tracker's worker pool. It never
// returns: the panic takes the process down.
func syntheticPanic() {
	go func() { panic("perfbench: synthetic op panic") }()
	select {}
}

// cellDigest runs one cell through experiments.RunCell, the path cdpfsim
// and cdpfmatrix execute.
func cellDigest(ax spec.Axes) (string, error) {
	out, err := experiments.RunCell(context.Background(), ax)
	if err != nil {
		return "", err
	}
	return recordsDigest(out.Trace.Records), nil
}

// fig56Digest runs one Fig. 5/6 point: every algorithm on one seed.
func fig56Digest(runs []spec.Axes) (string, error) {
	d := newDigester()
	for _, ax := range runs {
		out, err := experiments.RunCell(context.Background(), ax)
		if err != nil {
			return "", err
		}
		d.label(ax.Algo)
		d.records(out.Trace.Records)
	}
	return d.sum(), nil
}

// tracedOp runs the op's cells through Axes.Build, the algorithm's
// constructor and Step directly, with a span around each call, and returns
// the same digest the untraced RunCell path gives. Single-run ops hash one
// record list; fig56 ops hash the labelled runs.
func tracedOp(epoch time.Time, runs []spec.Axes) (string, []span, map[string]float64, error) {
	l := newSpanLog(epoch)
	counts := map[string]float64{}
	gc0, pause0 := gcStats()
	root := l.begin("worker.op")
	d := newDigester()
	var single string
	for _, ax := range runs {
		recs, err := tracedCell(l, ax, counts)
		if err != nil {
			return "", nil, nil, err
		}
		if len(runs) == 1 {
			single = recordsDigest(recs)
		}
		d.label(ax.Algo)
		d.records(recs)
	}
	l.end(root)
	gc1, pause1 := gcStats()
	counts["gc_cycles"] = float64(gc1 - gc0)
	counts["gc_pause_ns"] = pause1 - pause0
	if len(runs) == 1 {
		return single, l.spans, counts, nil
	}
	return d.sum(), l.spans, counts, nil
}

// allocSample reads the runtime's cumulative heap allocation count.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func allocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// gcSample reads the completed GC cycle count and the histogram of GC
// stop-the-world pauses; unlike runtime.ReadMemStats it does not stop the
// world itself.
var gcSample = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

// gcStats returns the GC cycle count and the total GC pause time in
// nanoseconds, estimated from the pause histogram's bucket midpoints.
func gcStats() (cycles uint64, pauseNs float64) {
	metrics.Read(gcSample)
	cycles = gcSample[0].Value.Uint64()
	h := gcSample[1].Value.Float64Histogram()
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		pauseNs += float64(n) * (lo + hi) / 2 * 1e9
	}
	return cycles, pauseNs
}

// poolThreshold is the holder count from which the tracker's intra-step
// pool may engage (core's minParallelItems).
const poolThreshold = 32

// tracedCell replays RunCell's loop for one single-target, static,
// always-on cell (the only kind the benchmark runs): same construction
// order, same RNG streams, same fault replay, same record fields.
func tracedCell(l *spanLog, ax spec.Axes, counts map[string]float64) ([]trace.Record, error) {
	ax = ax.Normalized()
	cellSpan := l.begin("cell." + ax.Algo)
	defer l.end(cellSpan)
	s := l.begin("scenario.build")
	sc, faults, err := ax.Build()
	l.end(s)
	if err != nil {
		return nil, err
	}
	var step func(k int, obs []core.Observation) (mathx.Vec2, int, bool, int)
	var tr *core.Tracker
	switch ax.Algo {
	case "cdpf", "cdpf-ne":
		cfg, err := ax.TrackerConfig()
		if err != nil {
			return nil, err
		}
		s := l.begin("core.tracker_new")
		tr, err = core.NewTracker(sc.Net, cfg)
		l.end(s)
		if err != nil {
			return nil, err
		}
		rng := sc.RNG(1)
		step = func(k int, obs []core.Observation) (mathx.Vec2, int, bool, int) {
			a0 := allocs()
			s := l.begin("core.step")
			res := tr.Step(obs, rng)
			l.end(s)
			counts["core.allocs"] += float64(allocs() - a0)
			counts["core.steps"]++
			counts["core.holders"] += float64(res.Holders)
			if res.Holders >= poolThreshold {
				counts["core.pool_eligible"]++
			}
			if res.EstimateValid {
				counts["core.estimates"]++
			}
			return res.Estimate, k - 1, res.EstimateValid && k >= 1, res.Holders
		}
	case "cpf":
		s := l.begin("baseline.cpf.new")
		c, err := baseline.NewCPF(sc.Net, baseline.DefaultCPFConfig())
		l.end(s)
		if err != nil {
			return nil, err
		}
		rng := sc.RNG(2)
		step = func(k int, obs []core.Observation) (mathx.Vec2, int, bool, int) {
			a0 := allocs()
			s := l.begin("baseline.cpf.step")
			est, ok := c.Step(obs, rng)
			l.end(s)
			counts["baseline.cpf.allocs"] += float64(allocs() - a0)
			counts["baseline.cpf.steps"]++
			return est, k, ok, -1
		}
	case "sdpf":
		s := l.begin("baseline.sdpf.new")
		sd, err := baseline.NewSDPF(sc.Net, baseline.DefaultSDPFConfig())
		l.end(s)
		if err != nil {
			return nil, err
		}
		rng := sc.RNG(3)
		step = func(k int, obs []core.Observation) (mathx.Vec2, int, bool, int) {
			a0 := allocs()
			s := l.begin("baseline.sdpf.step")
			est, ok := sd.Step(obs, rng)
			l.end(s)
			counts["baseline.sdpf.allocs"] += float64(allocs() - a0)
			counts["baseline.sdpf.steps"]++
			return est, k, ok, -1
		}
	default:
		return nil, fmt.Errorf("traced path does not run algorithm %q", ax.Algo)
	}

	recs := make([]trace.Record, 0, sc.Iterations())
	for k := 0; k < sc.Iterations(); k++ {
		now := sc.Filter.Times[k]
		faults.ApplyUntil(sc.Net, now)
		before := sc.Net.Stats.Snapshot()
		s := l.begin("scenario.observe")
		detectors := len(sc.DetectingNodes(k))
		obs := sc.Observations(k)
		l.end(s)
		est, forK, ok, holders := step(k, obs)
		d := sc.Net.Stats.Diff(before)
		r := trace.Record{
			K: k, Time: now,
			TruthX: sc.Truth(k).X, TruthY: sc.Truth(k).Y,
			Detectors: detectors, Holders: holders,
			MsgsDelta: d.TotalMsgs(), BytesDelta: d.TotalBytes(),
		}
		if ok && forK >= 0 {
			r.HaveEst, r.EstForK, r.EstX, r.EstY, r.Err = true, forK, est.X, est.Y, est.Dist(sc.Truth(forK))
		}
		recs = append(recs, r)
	}
	total := sc.Net.Stats.Snapshot()
	counts["wsn.msgs"] += float64(total.TotalMsgs())
	counts["wsn.bytes"] += float64(total.TotalBytes())
	if tr != nil {
		counts["core.rebroadcasts"] += float64(tr.Resilience().Rebroadcasts)
		if ax.Defend {
			q := tr.Quarantine()
			counts["core.evictions"] += float64(q.Evictions)
			counts["core.gated"] += float64(q.Gated)
		}
	}
	return recs, nil
}

// selfCPU is this process's user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
