package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/spec"
)

// runOffline runs cdpf-cells or fig56-points: ops execute one at a time in
// a supervised worker process, timed from the request write to the
// response read.
func runOffline(cfg config, ws workloadSpec) (*report, error) {
	argv, err := workerArgv()
	if err != nil {
		return nil, err
	}
	env := append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))

	rep := &report{}
	var sup *supervisor
	defer func() {
		if sup != nil {
			sup.stop()
		}
	}()
	var order []op
	var digests map[string]string
	// Set-up: load and validate the op list and the reference digests,
	// start the worker, and run the warm-up ops. It runs cfg.Setups times
	// from scratch; setup_s is the median.
	for i := 0; i < cfg.Setups; i++ {
		if sup != nil {
			sup.stop()
		}
		t0 := time.Now()
		ops, err := loadOps(cfg.Dir, cfg.Workload)
		if err != nil {
			return nil, err
		}
		digests = cfg.Digests
		if digests == nil {
			if digests, err = loadDigests(cfg.Dir); err != nil {
				return nil, err
			}
		}
		for _, o := range ops {
			if digests[o.Key] == "" {
				return nil, fmt.Errorf("no reference digest for %s (run: perfbench digests)", o.Key)
			}
		}
		order = opOrder(ops, cfg.Seed)
		sup = newSupervisor(argv, env)
		// A clean density-40 cell never crashes, touches every layer a cell
		// op does, and grows the heap to the largest working set.
		sup.warm = request{Kind: "cell", Axes: spec.Axes{Density: 40}.Normalized()}
		if err := sup.ensure(); err != nil {
			return nil, err
		}
		for j := 0; j < ws.warmOps; j++ {
			o := order[j%len(order)]
			if _, err := sup.do(request{Kind: o.Kind, Axes: o.Axes}); err != nil && !errors.Is(err, errWorkerDied) {
				return nil, err
			}
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	for _, o := range order {
		rep.passOrder = append(rep.passOrder, o.Key)
	}

	seconds := cfg.Seconds
	if cfg.Trace {
		seconds /= 2
	}
	if rep.timed, err = offlineSegment(cfg, ws, sup, order, digests, seconds, false); err != nil {
		return nil, err
	}
	if cfg.Trace {
		tr, err := offlineSegment(cfg, ws, sup, order, digests, seconds, true)
		if err != nil {
			return nil, err
		}
		rep.traced = &tr
		rep.perLayer = offlineLayers(tr)
		// IPC is measured where no span payload rides the response.
		rep.perLayer["worker.ipc_us"] = metric{rep.timed.counts["worker.ipc_us"], "us"}
		if err := tr.ledger.write(filepath.Join(cfg.WorkDir, fmt.Sprintf("%s-seed%d-spans.jsonl", cfg.Workload, cfg.Seed))); err != nil {
			return nil, err
		}
	}
	sup.stop()
	rep.peakKB = selfPeakKB() + sup.peakRSSKB()
	rep.workerPeaksKB = sup.peaksKB
	rep.lastCrash = sup.LastCrash
	return rep, nil
}

// offlineSegment runs whole passes over the op list until the time budget
// is spent (or cfg.Passes passes).
func offlineSegment(cfg config, ws workloadSpec, sup *supervisor, order []op, digests map[string]string, seconds float64, traced bool) (segment, error) {
	seg := segment{counts: map[string]float64{}, byKey: map[string][]float64{}}
	if traced {
		seg.ledger = newLedger()
	}
	restarts0 := sup.Restarts
	if err := sup.openWindow(); err != nil {
		return seg, err
	}
	cpu0 := selfCPU()
	t0 := time.Now()
	var ipcUs []float64
	for pass := 0; ; pass++ {
		for _, o := range order {
			start := time.Now()
			resp, err := sup.do(request{Kind: o.Kind, Axes: o.Axes, Trace: traced})
			rt := time.Since(start)
			seg.attempted++
			if errors.Is(err, errWorkerDied) {
				seg.failed++
				continue
			}
			if err != nil {
				return seg, err
			}
			if resp.Err != "" || resp.Digest != digests[o.Key] {
				seg.failed++
				seg.wrong++
				fmt.Fprintf(os.Stderr, "perfbench: %s: wrong output (digest %s, want %s, err %q)\n", o.Key, resp.Digest, digests[o.Key], resp.Err)
				continue
			}
			seg.ok++
			seg.latMs = append(seg.latMs, float64(rt)/1e6)
			seg.round = append(seg.round, roundOf(time.Since(t0), seconds, ws.rounds))
			seg.byKey[o.Key] = append(seg.byKey[o.Key], float64(rt)/1e6)
			ipc := rt - time.Duration(resp.OpNs)
			ipcUs = append(ipcUs, float64(ipc)/1e3)
			if traced {
				seg.ledger.add(seg.ok, opSpans(start.Sub(t0), rt, ipc, resp.Spans))
				for k, v := range resp.Counts {
					seg.counts[k] += v
				}
			}
		}
		done := time.Since(t0).Seconds() >= seconds
		if cfg.Passes > 0 {
			done = pass+1 >= cfg.Passes
		}
		if done {
			break
		}
	}
	seg.wall = time.Since(t0)
	wcpu, err := sup.closeWindow()
	if err != nil {
		return seg, err
	}
	seg.cpu = selfCPU() - cpu0 + wcpu
	seg.crashes = sup.Restarts - restarts0
	seg.counts["worker.restarts"] = float64(seg.crashes)
	seg.counts["worker.ipc_us"] = median(ipcUs)
	return seg, nil
}

// opSpans places a worker's op-relative spans on the supervisor timeline:
// the op root covers the round trip, worker.ipc the part spent outside the
// worker's op (pipe, encoding, scheduling), and the worker spans follow.
func opSpans(at, rt, ipc time.Duration, worker []span) []span {
	base := int64(at)
	spans := []span{
		{Parent: -1, Name: "op", Start: base, End: base + int64(rt)},
		{Parent: 0, Name: "worker.ipc", Start: base, End: base + int64(ipc)},
	}
	shift := base + int64(ipc)
	for _, s := range worker {
		s.Start += shift
		s.End += shift
		if s.Parent < 0 {
			s.Parent = 0
		} else {
			s.Parent += 2
		}
		spans = append(spans, s)
	}
	return spans
}

// offlineLayers turns a traced offline segment into the per-layer metrics.
func offlineLayers(seg segment) map[string]metric {
	g, c := seg.ledger, seg.counts
	per := func(num, den string) float64 {
		if c[den] == 0 {
			return 0
		}
		return c[num] / c[den]
	}
	ops := float64(max(seg.ok, 1))
	m := zeroLayers()
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("scenario.build_ms", g.meanMs("scenario.build"))
	set("scenario.build_share", g.share("op", "scenario.build"))
	set("core.tracker_new_ms", g.meanMs("core.tracker_new"))
	set("core.step_us", g.meanMs("core.step")*1e3)
	set("core.step_share", g.share("op", "core.step"))
	set("core.pool_eligible_share", per("core.pool_eligible", "core.steps"))
	set("core.holders_mean", per("core.holders", "core.steps"))
	set("core.estimate_share", per("core.estimates", "core.steps"))
	set("core.allocs_per_step", per("core.allocs", "core.steps"))
	set("core.rebroadcasts", c["core.rebroadcasts"]/ops)
	set("core.evictions", c["core.evictions"]/ops)
	set("core.gated", c["core.gated"]/ops)
	set("wsn.msgs_per_op", c["wsn.msgs"]/ops)
	set("wsn.bytes_per_op", c["wsn.bytes"]/ops)
	set("baseline.cpf.new_ms", g.meanMs("baseline.cpf.new"))
	set("baseline.cpf.step_ms", g.meanMs("baseline.cpf.step"))
	set("baseline.sdpf.step_ms", g.meanMs("baseline.sdpf.step"))
	set("baseline.cpf.share", g.share("op", "baseline.cpf.step"))
	set("baseline.sdpf.share", g.share("op", "baseline.sdpf.step"))
	if g.layer("cell.cpf").N > 0 {
		set("baseline.cdpf_share", g.share("op", "cell.cdpf", "cell.cdpf-ne"))
	}
	set("baseline.cpf.allocs_per_step", per("baseline.cpf.allocs", "baseline.cpf.steps"))
	set("baseline.sdpf.allocs_per_step", per("baseline.sdpf.allocs", "baseline.sdpf.steps"))
	set("worker.restarts", c["worker.restarts"])
	set("worker.ipc_us", c["worker.ipc_us"])
	set("proc.gc_cycles_per_op", c["gc_cycles"]/ops)
	set("proc.gc_pause_ms", c["gc_pause_ns"]/1e6/ops)
	setLedger(m, g)
	return m
}

// setLedger reports the blocking-path check: the share of each op's time
// that container spans (the op root, worker.op, cell.*) keep for
// themselves, i.e. that no layer span covers.
func setLedger(m map[string]metric, g *ledger) {
	var un []float64
	within := 0
	for _, u := range g.unattributed {
		un = append(un, u)
		if u <= ledgerTolerance {
			within++
		}
	}
	m["ledger.unattributed_share"] = metric{median(un), "ratio"}
	if len(un) > 0 {
		m["ledger.within_tolerance_share"] = metric{float64(within) / float64(len(un)), "ratio"}
	}
}

// isContainer reports whether a span only groups layer spans; its self
// time is the part of the op the ledger cannot attribute.
func isContainer(name string) bool {
	return name == "op" || name == "worker.op" || strings.HasPrefix(name, "cell.")
}

// perLayerUnits lists every per-layer metric with its unit; a workload
// reports 0 for a layer it bypasses.
var perLayerUnits = map[string]string{
	"scenario.build_ms": "ms", "scenario.build_share": "ratio",
	"core.tracker_new_ms": "ms", "core.step_us": "us", "core.step_share": "ratio",
	"core.pool_eligible_share": "ratio", "core.holders_mean": "count", "core.estimate_share": "ratio",
	"core.allocs_per_step": "count", "core.rebroadcasts": "count", "core.evictions": "count", "core.gated": "count",
	"wsn.msgs_per_op": "count", "wsn.bytes_per_op": "bytes",
	"baseline.cpf.new_ms": "ms", "baseline.cpf.step_ms": "ms", "baseline.sdpf.step_ms": "ms", "baseline.cpf.share": "ratio",
	"baseline.sdpf.share": "ratio", "baseline.cdpf_share": "ratio",
	"baseline.cpf.allocs_per_step": "count", "baseline.sdpf.allocs_per_step": "count",
	"worker.restarts": "count", "worker.ipc_us": "us",
	"serve.create_ms": "ms", "serve.ingest_ms": "ms", "serve.readback_ms": "ms",
	"serve.http_ingest_us": "us", "serve.step_us": "us", "serve.publish_lag_ms": "ms", "serve.sse_ms": "ms",
	"serve.queue_depth_max": "count", "serve.rejected": "count",
	"durable.wal_bytes_per_step": "bytes", "durable.wal_records": "count", "durable.fsyncs": "count",
	"durable.snapshots": "count", "durable.snapshot_ms": "ms",
	"gateway.hop_us": "us", "gateway.retries": "count", "gateway.parked": "count", "ring.skew": "ratio",
	"loadgen.late_p99_ms": "ms", "loadgen.inflight_max": "count",
	"proc.gc_cycles_per_op": "count", "proc.gc_pause_ms": "ms",
	"ledger.unattributed_share": "ratio", "ledger.within_tolerance_share": "ratio",
	"trace.overhead_share": "ratio",
}

// zeroLayers returns every per-layer metric at 0 with its unit.
func zeroLayers() map[string]metric {
	m := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		m[name] = metric{0, unit}
	}
	return m
}

// writeDigests regenerates the reference digests: every op of every
// workload through experiments.RunCell at GOMAXPROCS 1, so the tracker's
// Parallelism resolves to 1. Outputs are byte-identical at every worker
// count by contract, so these digests hold for timed runs at any core count.
func writeDigests(dir string) error {
	runtime.GOMAXPROCS(1)
	out := map[string]string{}
	for _, w := range []string{"cdpf-cells", "fig56-points"} {
		ops, err := loadOps(dir, w)
		if err != nil {
			return err
		}
		for _, o := range ops {
			var d string
			if o.Kind == "fig56" {
				runs := make([]spec.Axes, len(fig56Algos))
				for i, algo := range fig56Algos {
					runs[i] = o.Axes
					runs[i].Algo = algo
				}
				d, err = fig56Digest(runs)
			} else {
				var res *experiments.CellOutcome
				res, err = experiments.RunCell(context.Background(), o.Axes)
				if err == nil {
					d = recordsDigest(res.Trace.Records)
				}
			}
			if err != nil {
				return fmt.Errorf("%s: %w", o.Key, err)
			}
			out[o.Key] = d
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d digests\n", len(out))
	return os.WriteFile(filepath.Join(dir, digestFile), append(b, '\n'), 0o644)
}
