package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/spec"
)

// TestMain lets the test binary double as the op worker, as the benchmark
// binary does: the supervisor re-executes it with the role marker set.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "worker" {
		if err := runWorker(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyConfig runs one pass per timed segment with a single set-up.
func tinyConfig(t *testing.T, workload string, seed int64, trace bool) config {
	return config{
		Workload: workload, Seed: seed, Trace: trace,
		Dir: ".", WorkDir: t.TempDir(), Setups: 1, Passes: 1,
	}
}

// smallCell is a cheap clean cell that never crashes.
func smallCell(algo string) spec.Axes {
	return spec.Axes{Algo: algo, Density: 10, Seed: 31}.Normalized()
}

func TestWorkerCrashIsolation(t *testing.T) {
	for _, traced := range []bool{false, true} {
		argv, err := workerArgv()
		if err != nil {
			t.Fatal(err)
		}
		sup := newSupervisor(argv, os.Environ())
		defer sup.stop()
		digests := map[string]string{}
		order := []op{
			{Key: "a", Kind: "cell", Axes: smallCell("cdpf")},
			{Key: "boom", Kind: "panic"},
			{Key: "b", Kind: "cell", Axes: smallCell("cdpf-ne")},
		}
		for _, o := range []op{order[0], order[2]} {
			if digests[o.Key], err = cellDigest(o.Axes); err != nil {
				t.Fatal(err)
			}
		}
		cfg := config{Passes: 1}
		seg, err := offlineSegment(cfg, workloads["cdpf-cells"], sup, order, digests, 0, traced)
		if err != nil {
			t.Fatal(err)
		}
		if seg.attempted != 3 || seg.failed != 1 || seg.ok != 2 || seg.wrong != 0 {
			t.Fatalf("traced=%v: attempted %d failed %d ok %d wrong %d, want 3/1/2/0", traced, seg.attempted, seg.failed, seg.ok, seg.wrong)
		}
		if seg.crashes != 1 || seg.counts["worker.restarts"] != 1 || sup.Restarts != 1 {
			t.Fatalf("traced=%v: crashes %d, worker.restarts %v, supervisor restarts %d; want 1 each", traced, seg.crashes, seg.counts["worker.restarts"], sup.Restarts)
		}
		if !strings.Contains(sup.LastCrash, "synthetic op panic") {
			t.Fatalf("crash line %q does not name the panic", sup.LastCrash)
		}
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json lists.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

func sameMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", label, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", label, name)
		}
	}
}

func TestEveryMetricEmitted(t *testing.T) {
	e2e, layers, workloadNames := benchmarkMetrics(t)
	sort.Strings(workloadNames)
	if strings.Join(workloadNames, ",") != "cdpf-cells,fig56-points,serve-gw" {
		t.Fatalf("BENCHMARK.json workloads %v", workloadNames)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			out, _, err := run(tinyConfig(t, w, 7, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct %v attempted %d", w, traced, out.Correct, out.Attempted)
			}
			if w != "cdpf-cells" && out.Failed != 0 {
				t.Fatalf("%s trace=%v: %d failed ops", w, traced, out.Failed)
			}
			want := e2e
			if traced {
				want = layers
			}
			sameMetrics(t, w, out.Metrics, want)
		}
	}
}

func TestCorruptedDigestFails(t *testing.T) {
	for _, w := range []string{"cdpf-cells", "serve-gw"} {
		digests, err := loadDigests(".")
		if err != nil {
			t.Fatal(err)
		}
		const key = "cells-clean#density=20,algo=cdpf,seed=31"
		digests[key] = strings.Repeat("0", 32)
		cfg := tinyConfig(t, w, 3, false)
		cfg.Digests = digests
		out, rep, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Correct || rep.timed.wrong != 1 {
			t.Fatalf("%s: correct %v, wrong %d; want false, 1", w, out.Correct, rep.timed.wrong)
		}
		if rep.timed.failed != rep.timed.crashes+1 {
			t.Fatalf("%s: %d failed ops, want the %d crashes plus the corrupted op", w, rep.timed.failed, rep.timed.crashes)
		}
	}
}

func TestSeedChangesOrderAndSessionIDs(t *testing.T) {
	var orders [2]string
	var metrics [2][]string
	var ids [2][]string
	for i, seed := range []int64{1, 2} {
		out, rep, err := run(tinyConfig(t, "serve-gw", seed, false))
		if err != nil {
			t.Fatal(err)
		}
		orders[i] = strings.Join(rep.passOrder, ",")
		for name := range out.Metrics {
			metrics[i] = append(metrics[i], name)
		}
		sort.Strings(metrics[i])
		ids[i] = rep.sessionIDs
		seen := map[string]bool{}
		for _, id := range rep.sessionIDs {
			if seen[id] {
				t.Fatalf("seed %d: session ID %s used twice in one run", seed, id)
			}
			seen[id] = true
		}
	}
	if orders[0] == orders[1] {
		t.Error("seeds 1 and 2 gave the same op order")
	}
	if strings.Join(metrics[0], ",") != strings.Join(metrics[1], ",") {
		t.Errorf("metric sets differ: %v vs %v", metrics[0], metrics[1])
	}
	shared := 0
	first := map[string]bool{}
	for _, id := range ids[0] {
		first[id] = true
	}
	for _, id := range ids[1] {
		if first[id] {
			shared++
		}
	}
	if shared > 0 {
		t.Errorf("seeds 1 and 2 share %d session IDs", shared)
	}
}
