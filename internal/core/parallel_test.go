package core

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mathx"
	"repro/internal/sensorfault"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// runTrace is one full tracking run's complete observable output, with every
// float captured as raw bits so comparison is bit-exact, not tolerance-based.
type runTrace struct {
	estBits []uint64 // X/Y bits per iteration with a valid estimate
	holders []int
	created []int
	dropped []int
	weights []uint64 // final holder weights, ascending ID
	resil   ResilienceStats
	quar    QuarantineStats
	msgs    int64
	bytes   int64
}

// traceRun drives one tracker over a deterministic moving-target scenario and
// captures everything the algorithm computes. Every call with the same
// (cfg, loss setup, fault script) must produce identical traces. A non-nil
// fault script corrupts each detecting node's bearing before the tracker
// sees it, exactly as the simulator's sensing path does.
func traceRun(t *testing.T, cfg Config, loss func(*wsn.Network), faults *sensorfault.Script) runTrace {
	t.Helper()
	nw, err := wsn.NewNetwork(wsn.DefaultConfig(20), mathx.NewRNG(97))
	if err != nil {
		t.Fatal(err)
	}
	if loss != nil {
		loss(nw)
	}
	tr, err := NewTracker(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(98)
	target := mathx.V2(30, 60)
	var trace runTrace
	for k := 0; k < 12; k++ {
		det := nw.ActiveNodesWithin(target, nw.Cfg.SensingRadius)
		obs := make([]Observation, len(det))
		for i, id := range det {
			z := tr.cfg.Sensor.Measure(nw.Node(id).Pos, target, rng)
			if faults != nil {
				z, _ = faults.Corrupt(id, float64(k)*tr.cfg.Dt, z)
			}
			obs[i] = Observation{Node: id, Bearing: z}
		}
		res := tr.Step(obs, rng)
		if res.EstimateValid {
			trace.estBits = append(trace.estBits,
				math.Float64bits(res.Estimate.X), math.Float64bits(res.Estimate.Y))
		}
		trace.holders = append(trace.holders, res.Holders)
		trace.created = append(trace.created, res.Created)
		trace.dropped = append(trace.dropped, res.Dropped)
		target = target.Add(mathx.V2(12, 6))
	}
	for _, id := range tr.Holders() {
		trace.weights = append(trace.weights, math.Float64bits(tr.Weight(id)))
	}
	trace.resil = tr.Resilience()
	trace.quar = tr.Quarantine()
	trace.msgs = nw.Stats.TotalMsgs()
	trace.bytes = nw.Stats.TotalBytes()
	return trace
}

func sameTrace(a, b runTrace) bool {
	if len(a.estBits) != len(b.estBits) || len(a.weights) != len(b.weights) ||
		a.msgs != b.msgs || a.bytes != b.bytes {
		return false
	}
	for i := range a.estBits {
		if a.estBits[i] != b.estBits[i] {
			return false
		}
	}
	for i := range a.weights {
		if a.weights[i] != b.weights[i] {
			return false
		}
	}
	for i := range a.holders {
		if a.holders[i] != b.holders[i] || a.created[i] != b.created[i] || a.dropped[i] != b.dropped[i] {
			return false
		}
	}
	aq, bq := a.quar, b.quar
	if aq.Gated != bq.Gated || aq.Evictions != bq.Evictions || aq.Readmissions != bq.Readmissions ||
		!slices.Equal(aq.Quarantined, bq.Quarantined) || !slices.Equal(aq.Ever, bq.Ever) {
		return false
	}
	ar, br := a.resil, b.resil
	return ar.Rebroadcasts == br.Rebroadcasts && ar.RebroadcastSaves == br.RebroadcastSaves &&
		ar.Compensated == br.Compensated && ar.LossEpisodes == br.LossEpisodes &&
		ar.LockedIters == br.LockedIters && ar.LostIters == br.LostIters
}

// traceAtProcs runs traceRun with GOMAXPROCS set to procs, restoring the
// previous value afterwards (go test -cpu sets it per run).
func traceAtProcs(t *testing.T, procs int, cfg Config, loss func(*wsn.Network), faults *sensorfault.Script) runTrace {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return traceRun(t, cfg, loss, faults)
}

// stuckEveryFifth scripts a stuck-at fault on every fifth node for the whole
// run: a minority of each detecting cohort, which the quarantine evicts.
func stuckEveryFifth() *sensorfault.Script {
	var nodes []wsn.NodeID
	for id := wsn.NodeID(0); id < 8000; id += 5 {
		nodes = append(nodes, id)
	}
	s := sensorfault.NewScript(13)
	s.StuckAt(0, math.Inf(1), nodes)
	return s
}

// TestParallelStepByteIdentity is the host-independence contract of
// Tracker.Step: a run must produce the same bytes whatever the host's core
// count. For every configuration — loss-free Gaussian, iid loss with
// rebroadcast and compensation, bursty loss, Student-t with quantization and
// gating, sensor faults under the hardened defenses (quarantine evicting
// sharers), and CDPF-NE — the run at GOMAXPROCS 4 must reproduce the run at
// GOMAXPROCS 1 bit for bit: identical estimate bits, weight bits, population
// dynamics, resilience and quarantine counters, and radio traffic.
func TestParallelStepByteIdentity(t *testing.T) {
	type variant struct {
		name   string
		cfg    Config
		loss   func(*wsn.Network)
		faults *sensorfault.Script
	}
	variants := []variant{
		{name: "gaussian-lossfree", cfg: DefaultConfig(false)},
		{
			name: "iid-loss-rebroadcast-compensate",
			cfg: func() Config {
				c := DefaultConfig(false)
				c.Rebroadcasts = 2
				c.RebroadcastBackoff = 1.3
				c.CompensateLoss = true
				return c
			}(),
			loss: func(nw *wsn.Network) { nw.SetLossRate(0.25, 7) },
		},
		{
			name: "burst-loss",
			cfg:  DefaultConfig(false),
			loss: func(nw *wsn.Network) { nw.SetBurstLoss(0.2, 3, 11) },
		},
		{
			name: "student-t-quant-gate",
			cfg: func() Config {
				c := DefaultConfig(false)
				c.Sensor = statex.BearingSensor{SigmaN: 0.05, TailNu: 4}
				c.QuantSigma = 2.0
				c.GateSigma = 2.5
				return c
			}(),
		},
		{
			name:   "sensorfault-quarantine",
			cfg:    HardenedSensingConfig(false),
			faults: stuckEveryFifth(),
		},
		{name: "ne", cfg: DefaultConfig(true)},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			ref := traceAtProcs(t, 1, v.cfg, v.loss, v.faults)
			if v.cfg.Quarantine && ref.quar.Evictions == 0 {
				t.Fatal("no sharer was quarantined: the filtered-sharer path never ran")
			}
			if got := traceAtProcs(t, 4, v.cfg, v.loss, v.faults); !sameTrace(ref, got) {
				t.Fatal("trace at GOMAXPROCS 4 differs from GOMAXPROCS 1")
			}
		})
	}
}
