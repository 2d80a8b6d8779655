// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time, checks every op's output against a checked-in reference
// digest, and prints one JSON result line last:
//
//	perfbench --workload cdpf-cells|fig56-points|serve-gw --seed N --seconds S --trace 0|1
//	perfbench digests    (regenerate perfbench/digests.json at Parallelism 1)
//
// It is run from the repository root (see run.sh, which builds it first).
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced segment, measured after an
// untraced segment of the same length so the tracing overhead is reported.
// ledger.md describes the workloads, metrics and how they relate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark run.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Dir holds the benchmark's own files (specs/, digests.json).
	Dir string
	// WorkDir receives run data: WAL directories, spans, result records.
	WorkDir string
	// Setups is how many times set-up runs; setup_s is the median.
	Setups int
	// Passes, when > 0, replaces the time budget: each timed segment runs
	// exactly this many passes over the op list (self-tests).
	Passes int
	// Digests overrides the checked-in reference digests (self-tests).
	Digests map[string]string
}

// workloadSpec fixes what differs per workload.
type workloadSpec struct {
	// tailP is the percentile behind op_tail_ms: the highest whole
	// percentile with at least ten successful ops beyond it, per round, at
	// the op count a 35-second run reaches on a 2-core host.
	tailP float64
	// rounds splits a timed segment into that many equal spans of time;
	// op_tail_ms is the median of the rounds' tailP percentiles, so one
	// burst of host interference moves at most one round.
	rounds int
	// warmOps is how many ops each set-up runs untimed, cycling through
	// the op list.
	warmOps int
}

var workloads = map[string]workloadSpec{
	"cdpf-cells":   {tailP: 98, rounds: 5, warmOps: 66},
	"fig56-points": {tailP: 95, rounds: 1, warmOps: 4},
	"serve-gw":     {tailP: 94, rounds: 10, warmOps: 44},
}

// ledgerTolerance bounds the share of an op's time that no layer span
// covers; the traced run reports how many ops stay within it.
const ledgerTolerance = 0.10

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line the benchmark prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// segment is the outcome of one timed segment.
type segment struct {
	attempted, ok, failed int
	// wrong counts ops whose output disagreed with the reference digest.
	wrong   int
	crashes int
	latMs   []float64
	// round holds each successful op's round, parallel to latMs.
	round []int
	// byKey holds each op key's successful latencies, ms.
	byKey  map[string][]float64
	wall   time.Duration
	cpu    time.Duration
	ledger *ledger
	counts map[string]float64
	// layers holds a traced segment's per-layer metrics.
	layers map[string]metric
}

// report is everything a run measured.
type report struct {
	setups   []float64
	timed    segment // untraced segment: the end-to-end figures
	traced   *segment
	peakKB   int64
	perLayer map[string]metric
	host     map[string]any
	// sessionIDs lists every serve-gw session created, in order.
	sessionIDs []string
	// passOrder lists the op keys of one timed pass, in order.
	passOrder []string
	// workerPeaksKB holds the peak RSS of every worker process.
	workerPeaksKB []int64
	// lastCrash is the panic line of the last worker that died.
	lastCrash string
}

func main() {
	if os.Getenv(roleEnv) == "worker" {
		if err := runWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "digests" {
		if err := writeDigests("perfbench"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := config{Dir: "perfbench", WorkDir: ".bench_build/runs", Setups: 5}
	flag.StringVar(&cfg.Workload, "workload", "", "cdpf-cells, fig56-points or serve-gw")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: op order and session IDs")
	flag.Float64Var(&cfg.Seconds, "seconds", 35, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs an untraced then a traced segment and reports per-layer metrics")
	flag.Parse()
	cfg.Trace = *trace == 1
	out, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	hb, _ := json.Marshal(rep.host)
	fmt.Println(string(hb))
	ob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(ob))
}

// run executes one benchmark run and assembles its result line.
func run(cfg config) (*output, *report, error) {
	ws, ok := workloads[cfg.Workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want cdpf-cells, fig56-points or serve-gw)", cfg.Workload)
	}
	if cfg.Seconds <= 0 && cfg.Passes <= 0 {
		return nil, nil, errors.New("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, nil, err
	}
	var rep *report
	var err error
	if cfg.Workload == "serve-gw" {
		rep, err = runServe(cfg, ws)
	} else {
		rep, err = runOffline(cfg, ws)
	}
	if err != nil {
		return nil, nil, err
	}
	seg := rep.timed
	out := &output{
		Correct:   seg.wrong == 0,
		Attempted: seg.attempted,
		Failed:    seg.failed,
	}
	if rep.traced != nil {
		out.Correct = out.Correct && rep.traced.wrong == 0
		out.Attempted += rep.traced.attempted
		out.Failed += rep.traced.failed
	}
	overhead := 0.0
	if rep.traced != nil {
		if p := quantile(seg.latMs, 50); p > 0 {
			overhead = quantile(rep.traced.latMs, 50)/p - 1
		}
	}
	if cfg.Trace {
		out.Metrics = rep.perLayer
		out.Metrics["trace.overhead_share"] = metric{overhead, "ratio"}
	} else {
		out.Metrics = endToEnd(seg, ws, rep)
	}
	rep.host = hostRecord(cfg, ws, rep, overhead)
	byKey := map[string]float64{}
	for k, v := range seg.byKey {
		byKey[k] = median(v)
	}
	detail := map[string]any{
		"host": rep.host, "result": out, "op_p50_ms_by_key": byKey, "worker_peaks_kb": rep.workerPeaksKB,
		"lat_ms": seg.latMs, "round": seg.round,
	}
	if b, err := json.MarshalIndent(detail, "", "  "); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%v.json", cfg.Workload, cfg.Seed, cfg.Trace)
		_ = os.WriteFile(filepath.Join(cfg.WorkDir, name), b, 0o644) // the printed lines are the result; this copy is a convenience
	}
	return out, rep, nil
}

// endToEnd computes the user-visible metrics of an untraced segment.
func endToEnd(seg segment, ws workloadSpec, rep *report) map[string]metric {
	ok := float64(max(seg.ok, 1))
	return map[string]metric{
		"setup_s":       {median(rep.setups), "s"},
		"ops_per_s":     {float64(seg.ok) / seg.wall.Seconds(), "1/s"},
		"op_p50_ms":     {quantile(seg.latMs, 50), "ms"},
		"op_tail_ms":    {tail(seg, ws), "ms"},
		"ok_share":      {float64(seg.ok) / float64(max(seg.attempted, 1)), "ratio"},
		"cpu_ms_per_op": {float64(seg.cpu) / 1e6 / ok, "ms"},
		"peak_rss_mb":   {float64(rep.peakKB) / 1024, "MB"},
	}
}

// tail is the median over the segment's rounds of each round's tailP
// percentile of successful op latency.
func tail(seg segment, ws workloadSpec) float64 {
	byRound := make([][]float64, max(ws.rounds, 1))
	for i, l := range seg.latMs {
		r := min(seg.round[i], len(byRound)-1)
		byRound[r] = append(byRound[r], l)
	}
	var tails []float64
	for _, lat := range byRound {
		if len(lat) > 0 {
			tails = append(tails, quantile(lat, ws.tailP))
		}
	}
	return median(tails)
}

// roundOf maps elapsed time in a segment to its round.
func roundOf(elapsed time.Duration, seconds float64, rounds int) int {
	if seconds <= 0 {
		return 0
	}
	return min(rounds-1, int(elapsed.Seconds()/seconds*float64(rounds)))
}

// opOrder returns the run's op order: one fixed pseudo-random interleaving
// of the op list, started at an offset the seed picks. Every seed sees the
// same neighbours for each op (what precedes an op, a crash or a large
// cell, changes its latency), so seeds differ in order, not in workload.
func opOrder(ops []op, seed int64) []op {
	mixed := append([]op(nil), ops...)
	rand.New(rand.NewSource(1)).Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	k := int(uint64(seed) % uint64(len(mixed)))
	return append(mixed[k:], mixed[:k]...)
}

// selfPeakKB is this process's peak RSS in KiB.
func selfPeakKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// hostRecord describes the host and the run behind a result.
func hostRecord(cfg config, ws workloadSpec, rep *report, overhead float64) map[string]any {
	n := len(rep.timed.latMs) / max(ws.rounds, 1)
	rec := map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"cpu_model":        cpuModel(),
		"go_version":       runtime.Version(),
		"wal_fs":           fsType(cfg.WorkDir),
		"workload":         cfg.Workload,
		"seed":             cfg.Seed,
		"seconds":          cfg.Seconds,
		"trace":            cfg.Trace,
		"ops_attempted":    rep.timed.attempted,
		"ops_ok":           rep.timed.ok,
		"tail_percentile":  ws.tailP,
		"tail_rounds":      ws.rounds,
		"tail_ops_beyond":  beyond(n, ws.tailP),
		"setup_runs_s":     rep.setups,
		"worker_crashes":   rep.timed.crashes,
		"last_crash":       rep.lastCrash,
		"ledger_tolerance": ledgerTolerance,
	}
	if rep.traced != nil {
		rec["trace_overhead"] = overhead
		rec["traced_ops"] = rep.traced.attempted
	}
	return rec
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x65735546: "fuse",
		0x6a656a63: "fakeowner", 0x2fc12fc1: "zfs", 0x00006969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
