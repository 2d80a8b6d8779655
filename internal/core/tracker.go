package core

import (
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// Observation is one node's bearing measurement at the current iteration.
type Observation struct {
	Node    wsn.NodeID
	Bearing float64
}

// StepResult reports one CDPF iteration's outputs.
type StepResult struct {
	// Estimate is the target position estimate for the *previous* iteration
	// (the correction step of the reordered pipeline runs one iteration
	// late; Section IV-A). Valid only when EstimateValid.
	Estimate      mathx.Vec2
	EstimateValid bool
	// Predicted is the extrapolated target position for the current
	// iteration (the "slashed square" of Fig. 1), used by CDPF-NE as the
	// estimation-area center. Valid only when PredictedValid.
	Predicted      mathx.Vec2
	PredictedValid bool

	Holders int // particle-holding nodes after this iteration (N_n)
	Created int // new particles created from fresh detections
	Dropped int // particles dropped by the correction step or zero likelihood
}

// Tracker runs CDPF (or CDPF-NE) over a network. All communication flows
// through the network's accounting radio, so nw.Stats reflects exactly the
// algorithm's cost.
type Tracker struct {
	nw  *wsn.Network
	cfg Config

	// parts is the dense node-indexed particle store; scr is the reusable
	// per-iteration scratch arena (see arena.go). Together they make a
	// steady-state Step allocation-free.
	parts *particleStore
	scr   scratch

	// lastBcasts holds the current iteration's propagation broadcasts, used
	// by the particle-creation rule ("a node that does not receive any
	// propagated particles detects the target").
	lastBcasts []bcast
	// missedIters counts consecutive iterations in which detections existed
	// but no particle-holding node was among the detectors; a miss is treated
	// as track divergence and triggers re-initialization, with a one-iteration
	// grace period after each reinit to prevent reinit storms.
	missedIters int

	// resilience accounting (see ResilienceStats)
	resil   ResilienceStats
	iter    int  // Step invocations so far
	lostAt  int  // iteration the current loss episode began; -1 when locked
	everEst bool // an estimate has been produced at least once

	// sensing defenses (see quarantine.go); quar is nil unless
	// Config.Quarantine is set, gated counts innovation-gated terms.
	quar  *reputation
	gated int

	// bk is the batch bearing-likelihood evaluator (internal/kernel) with the
	// model's normalization constants hoisted.
	bk kernel.Bearing
}

// ResilienceStats counts the tracker's degradation events across a run:
// how often the graceful-degradation mechanisms fired and how the track
// lock evolved. An episode begins when a previously locked tracker stops
// producing estimates and ends at the next valid estimate; Reacquires holds
// the length (in filter iterations) of each episode that ended.
type ResilienceStats struct {
	Rebroadcasts     int   // charged retry transmissions after silent drops
	RebroadcastSaves int   // particles that found recorders only on a retry
	Compensated      int   // overheard totals extrapolated over detected loss
	LossEpisodes     int   // track-loss episodes entered
	LockedIters      int   // iterations with a valid estimate
	LostIters        int   // iterations inside a loss episode
	Reacquires       []int // iterations-to-reacquire per ended episode
}

// NewTracker validates the configuration and returns a tracker with no
// particles (the initialization step runs on the first detections passed to
// Step).
func NewTracker(nw *wsn.Network, cfg Config) (*Tracker, error) {
	c, err := cfg.withDefaults(nw)
	if err != nil {
		return nil, err
	}
	t := &Tracker{
		nw:     nw,
		cfg:    c,
		parts:  newParticleStore(nw.Len()),
		scr:    newScratch(nw.Len()),
		lostAt: -1,
		bk:     kernel.NewBearing(c.Sensor.SigmaN, c.Sensor.TailNu, c.QuantSigma, c.GateSigma),
	}
	if c.Quarantine {
		t.quar = newReputation(c.QuarantineDevSigma)
	}
	return t, nil
}

// Resilience returns the degradation counters accumulated so far.
func (t *Tracker) Resilience() ResilienceStats { return t.resil }

// Holders returns the IDs of nodes currently maintaining a particle, sorted
// for determinism. The slice is freshly allocated; the tracker's internal
// phases iterate the store's reused sorted list instead.
func (t *Tracker) Holders() []wsn.NodeID {
	return slices.Clone(t.parts.sorted())
}

// Weight returns the current weight of the particle on node id (0 if none).
func (t *Tracker) Weight(id wsn.NodeID) float64 {
	return t.parts.weight(id)
}

// Step runs one full CDPF iteration given the bearings observed by the
// currently detecting nodes. Iteration order follows Algorithm 1:
//
//  1. propagate particles (prediction; importance density realized by the
//     spread of recording nodes in each particle's predicted area);
//  2. obtain the total weight by overhearing and normalize;
//  3. resample (drop negligible-weight particles);
//  4. estimate the target position for the previous iteration;
//  5. share measurements and compute likelihoods (CDPF) or estimate
//     neighbor contributions (CDPF-NE);
//  6. assign updated weights; create fresh particles on detecting nodes
//     that recorded nothing.
func (t *Tracker) Step(obs []Observation, rng *mathx.RNG) StepResult {
	var res StepResult
	t.nw.NextEpoch() // fresh packet-loss draws for this iteration

	// ---- 1+2+3+4: prediction, overhearing aggregation, correction ----
	t.lastBcasts = t.lastBcasts[:0]
	if t.parts.len() > 0 {
		t.propagate(&res)
	}

	// ---- 5+6: likelihood / neighborhood estimation, weight assignment ----
	if t.cfg.UseNE {
		t.assignNE(obs, &res)
	} else {
		t.assignLikelihood(obs, &res)
	}

	// Track-divergence recovery: when detections exist but the particle
	// cloud has not overlapped the detecting nodes, the track has drifted
	// off the target; drop the cloud so
	// the creation step re-initializes on the detectors (the paper's
	// initialization procedure).
	if len(obs) > 0 && t.parts.len() > 0 {
		overlap := false
		for _, o := range obs {
			if t.parts.has(o.Node) {
				overlap = true
				break
			}
		}
		if overlap {
			t.missedIters = 0
		} else {
			t.missedIters++
			if t.missedIters >= 1 {
				res.Dropped += t.parts.len()
				t.parts.clear()
				// Grace period: the freshly re-initialized cloud gets one
				// iteration to re-acquire before another reinit can fire,
				// preventing reinit storms (each wave costs a broadcast
				// per created particle).
				t.missedIters = -1
			}
		}
	}

	// Nodes with negligible posterior weight stop broadcasting ("this node
	// may drop the particle on it and stop broadcasting", Section III-B):
	// prune before the next iteration's propagation pays for them.
	res.Dropped += t.pruneLowWeight()

	// ---- new particles on detecting nodes that heard no propagation ----
	t.createFresh(obs, &res)

	res.Holders = t.parts.len()
	t.accountLock(res.EstimateValid)
	_ = rng // reserved for stochastic extensions (e.g. randomized recording)
	return res
}

// accountLock updates the track-loss episode bookkeeping after one Step.
func (t *Tracker) accountLock(estimateValid bool) {
	switch {
	case estimateValid:
		if t.lostAt >= 0 {
			t.resil.Reacquires = append(t.resil.Reacquires, t.iter-t.lostAt)
			t.lostAt = -1
		}
		t.everEst = true
		t.resil.LockedIters++
	case t.everEst:
		if t.lostAt < 0 {
			t.lostAt = t.iter
			t.resil.LossEpisodes++
		}
		t.resil.LostIters++
	}
	t.iter++
}

// pruneLowWeight removes particles whose normalized weight is below
// DropFraction divided by the particle count, returning the number dropped.
func (t *Tracker) pruneLowWeight() int {
	if t.parts.len() == 0 {
		return 0
	}
	ids := t.parts.sorted()
	total := 0.0
	for _, id := range ids {
		total += t.parts.w[id]
	}
	if total <= 0 {
		return 0
	}
	threshold := t.cfg.DropFraction / float64(len(ids))
	dropped := 0
	// Descending index scan so swap-with-last removal only disturbs slots
	// already visited; no snapshot copy needed.
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		if t.parts.w[id]/total < threshold {
			t.parts.remove(id)
			dropped++
		}
	}
	return dropped
}

// heardPropagation reports whether node id was within radio range of any of
// this iteration's propagation broadcasts.
func (t *Tracker) heardPropagation(id wsn.NodeID) bool {
	pos := t.nw.Node(id).Pos
	commR := t.nw.Cfg.CommRadius
	for i := range t.lastBcasts {
		if t.lastBcasts[i].id == id || (t.lastBcasts[i].pos.Dist(pos) <= commR && t.nw.Delivers(t.lastBcasts[i].id, id)) {
			return true
		}
	}
	return false
}

// bcast is one holder's propagation broadcast as seen by overhearing nodes.
type bcast struct {
	id   wsn.NodeID
	pos  mathx.Vec2
	vel  mathx.Vec2
	w    float64
	area cluster.PredictedArea
}

// propagate implements the prediction + correction phases.
func (t *Tracker) propagate(res *StepResult) {
	holders := t.parts.sorted()
	sizes := t.cfg.Sizes

	// Broadcast every holder's combined particle (Dp) and weight (Dw) in a
	// single propagation message.
	t.lastBcasts = t.lastBcasts[:0]
	bcasts := t.lastBcasts
	var totalW float64
	var sumPos, sumVel mathx.Vec2
	for _, id := range holders {
		w, vel := t.parts.w[id], t.parts.vel[id]
		pos := t.nw.Node(id).Pos
		t.nw.Transmit(id, wsn.MsgParticle, sizes.Dp+sizes.Dw)
		center := pos.Add(vel.Scale(t.cfg.Dt))
		bcasts = append(bcasts, bcast{
			id: id, pos: pos, vel: vel, w: w,
			area: cluster.PredictedArea{Center: center, Radius: t.cfg.PredictRadius},
		})
		totalW += w
		sumPos = sumPos.Add(pos.Scale(w))
		sumVel = sumVel.Add(vel.Scale(w))
	}
	t.lastBcasts = bcasts

	// Correction (ideal overhearing view): the estimate for the previous
	// iteration and the velocity used for the current prediction.
	var velMean mathx.Vec2
	if totalW > 0 {
		res.Estimate = sumPos.Scale(1 / totalW)
		res.EstimateValid = true
		velMean = sumVel.Scale(1 / totalW)
		res.Predicted = res.Estimate.Add(velMean.Scale(t.cfg.Dt))
		res.PredictedValid = true
	}
	// Default geometry: every node derives the same predicted target
	// position from the overheard broadcasts, so all particles propagate
	// toward one shared predicted area (Fig. 1).
	if !t.cfg.PerParticleAreas && res.PredictedValid {
		shared := cluster.PredictedArea{Center: res.Predicted, Radius: t.cfg.PredictRadius}
		for i := range bcasts {
			bcasts[i].area = shared
			bcasts[i].vel = velMean
		}
	}

	// Identify each broadcaster's recording nodes: awake nodes inside the
	// predicted area whose linear probability clears the record threshold.
	// maxRecordDist is the distance at which the linear probability equals
	// the threshold.
	maxRecordDist := t.cfg.PredictRadius * (1 - t.cfg.RecordThreshold)

	t.scr.accEpoch++
	t.scr.touched = t.scr.touched[:0]
	t.gatherBcastColumns(bcasts)
	t.scr.otEpoch++
	t.record(bcasts, maxRecordDist, res)

	// Install the recorded particles (combining happens implicitly: one
	// accumulator per node). Install order is ascending ID.
	t.parts.clear()
	slices.Sort(t.scr.touched)
	for _, id := range t.scr.touched {
		w := t.scr.accW[id]
		if w <= 0 {
			continue
		}
		t.parts.add(id, t.scr.accVel[id].Scale(1/w), w)
	}

	// Resampling analog: drop particles with negligible normalized weight,
	// and enforce the controllable population bound of Section III-A.
	if t.parts.len() > 0 {
		res.Dropped += t.pruneLowWeight()
		if t.parts.len() > t.cfg.MaxHolders {
			all := t.scr.byWeight[:0]
			for _, id := range t.parts.sorted() {
				all = append(all, holderWeight{id: id, w: t.parts.w[id]})
			}
			slices.SortFunc(all, func(a, b holderWeight) int {
				switch {
				case a.w > b.w:
					return -1
				case a.w < b.w:
					return 1
				}
				return int(a.id) - int(b.id)
			})
			t.scr.byWeight = all
			for _, h := range all[t.cfg.MaxHolders:] {
				t.parts.remove(h.id)
				res.Dropped++
			}
		}
	}
}

// record is the recorder-resolution loop of the propagation phase: for every
// broadcast, select its recorders (with bounded rebroadcast retries), split
// the weight by division ratio over each recorder's (memoized) overheard
// total, and accumulate the shares in broadcast order.
func (t *Tracker) record(bcasts []bcast, maxRecordDist float64, res *StepResult) {
	sizes := t.cfg.Sizes
	for _, b := range bcasts {
		recorders := t.selectRecorders(b, maxRecordDist, 0)
		// Bounded re-broadcast with backoff: a holder whose propagation drew
		// no recorder (nobody awake/reachable in the predicted area) retries
		// up to Rebroadcasts times, each retry charged like the original
		// message and announcing a recording distance widened by the backoff
		// factor — trading bytes for a chance to keep the particle alive
		// instead of silently dropping it.
		for attempt := 1; len(recorders) == 0 && attempt <= t.cfg.Rebroadcasts; attempt++ {
			t.nw.Transmit(b.id, wsn.MsgParticle, sizes.Dp+sizes.Dw)
			t.resil.Rebroadcasts++
			dist := maxRecordDist * math.Pow(t.cfg.RebroadcastBackoff, float64(attempt))
			recorders = t.selectRecorders(b, dist, attempt)
			if len(recorders) > 0 {
				t.resil.RebroadcastSaves++
			}
		}
		if len(recorders) == 0 {
			res.Dropped++ // particle lost: nobody in its predicted area
			continue
		}
		// Division ratios over the selected recorders (rules of §III-B).
		t.scr.positions = t.scr.positions[:0]
		for _, id := range recorders {
			t.scr.positions = append(t.scr.positions, t.nw.Node(id).Pos)
		}
		positions := t.scr.positions
		t.scr.ratios = b.area.AppendDivisionRatios(t.scr.ratios[:0], positions)
		ratios := t.scr.ratios
		// Per-recorder overheard total: the sum of broadcast weights this
		// recorder could physically hear (all broadcasters within one hop).
		for i, id := range recorders {
			wj := t.overheardTotalMemo(id, bcasts)
			if wj <= 0 {
				continue
			}
			if t.scr.accStamp[id] != t.scr.accEpoch {
				t.scr.accStamp[id] = t.scr.accEpoch
				t.scr.accW[id] = 0
				t.scr.accVel[id] = mathx.Vec2{}
				t.scr.touched = append(t.scr.touched, id)
			}
			share := ratios[i] * b.w / wj
			t.scr.accW[id] += share
			// The recorded particle's velocity blends the realized
			// displacement from the source host to the recorder with the
			// source particle's own velocity, damping the quantization
			// noise the node-hop injects into the velocity estimate.
			hop := positions[i].Sub(b.pos).Scale(1 / t.cfg.Dt)
			vel := hop.Lerp(b.vel, t.cfg.VelSmoothing)
			t.scr.accVel[id] = t.scr.accVel[id].Add(vel.Scale(share))
		}
	}
}

// selectRecorders returns the awake nodes within maxDist of the broadcast's
// predicted-area center that physically received the attempt-th transmission
// of the broadcast: within the communication radius of the sender (or the
// sender itself). The returned slice aliases the scratch query buffer and is
// invalidated by the next call.
func (t *Tracker) selectRecorders(b bcast, maxDist float64, attempt int) []wsn.NodeID {
	commR := t.nw.Cfg.CommRadius
	t.scr.cand = t.nw.AppendActiveNodesWithin(t.scr.cand[:0], b.area.Center, maxDist)
	cand := t.scr.cand
	recorders := cand[:0]
	for _, id := range cand {
		if id == b.id || (t.nw.Node(id).Pos.Dist(b.pos) <= commR && t.nw.DeliversAttempt(b.id, id, attempt)) {
			recorders = append(recorders, id)
		}
	}
	return recorders
}

// gatherBcastColumns mirrors this iteration's finalized broadcasts into the
// flat scratch columns the batch kernels read.
func (t *Tracker) gatherBcastColumns(bcasts []bcast) {
	scr := &t.scr
	scr.bx, scr.by = scr.bx[:0], scr.by[:0]
	scr.bw, scr.bid = scr.bw[:0], scr.bid[:0]
	for i := range bcasts {
		scr.bx = append(scr.bx, bcasts[i].pos.X)
		scr.by = append(scr.by, bcasts[i].pos.Y)
		scr.bw = append(scr.bw, bcasts[i].w)
		scr.bid = append(scr.bid, int32(bcasts[i].id))
	}
}

// overheardTotal returns the sum of broadcast weights receivable at node id:
// broadcasts from within the communication radius (overhearing effect).
//
// With CompensateLoss enabled, the recorder falls back to extrapolating its
// locally-observed total when the overheard total is incomplete: a radio
// detects in-range frames it failed to decode (preamble heard, CRC failed)
// even though it cannot recover their payloads, so the recorder knows how
// many in-range propagation broadcasts it missed and scales the weight it
// did observe by inRange/heard. Without packet loss heard == inRange and
// the total is exactly the seed behavior.
func (t *Tracker) overheardTotal(id wsn.NodeID, bcasts []bcast) float64 {
	pos := t.nw.Node(id).Pos
	commR := t.nw.Cfg.CommRadius
	total := 0.0
	heard, inRange := 0, 0
	for i := range bcasts {
		if bcasts[i].id == id {
			total += bcasts[i].w
			heard++
			inRange++
			continue
		}
		if bcasts[i].pos.Dist(pos) > commR {
			continue
		}
		inRange++
		if t.nw.Delivers(bcasts[i].id, id) {
			total += bcasts[i].w
			heard++
		}
	}
	if t.cfg.CompensateLoss && heard > 0 && inRange > heard {
		total *= float64(inRange) / float64(heard)
		t.resil.Compensated++
	}
	return total
}

// overheardTotalMemo is the memoized overheardTotal: the seed recomputed the
// same total for every (broadcast, recorder) pair — O(B²·R) distance and loss
// work per iteration — while within one propagation phase it is a pure
// function of (node, broadcasts, loss epoch). The memo is invalidated per
// propagation phase (otEpoch); otComp remembers whether the stored total was
// loss-compensated, so every hit replays the Compensated increment the
// direct call would have made. When no loss process is configured a miss is
// answered by the loss-free batch kernel over the gathered broadcast columns
// (identical Hypot operands, identical summation order).
func (t *Tracker) overheardTotalMemo(id wsn.NodeID, bcasts []bcast) float64 {
	scr := &t.scr
	if scr.otStamp[id] == scr.otEpoch {
		if scr.otComp[id] {
			t.resil.Compensated++
		}
		return scr.otVal[id]
	}
	scr.otStamp[id] = scr.otEpoch
	before := t.resil.Compensated
	if t.nw.LossFree() {
		pos := t.nw.Node(id).Pos
		scr.otVal[id] = kernel.OverheardSum(scr.bx, scr.by, scr.bw, scr.bid, int32(id), pos.X, pos.Y, t.nw.Cfg.CommRadius)
	} else {
		scr.otVal[id] = t.overheardTotal(id, bcasts)
	}
	scr.otComp[id] = t.resil.Compensated != before
	return scr.otVal[id]
}

// effSigma returns the bearing-noise scale used when evaluating a
// measurement taken at `from` against candidate position `cand`: the sensor
// noise inflated by the node-quantization term QuantSigma/d (the particle is
// pinned to a node position, so it carries positional uncertainty of about
// half the internode spacing).
func (t *Tracker) effSigma(from, cand mathx.Vec2) float64 {
	sigma := t.cfg.Sensor.SigmaN
	if t.cfg.QuantSigma > 0 {
		d := from.Dist(cand)
		if d < 1 {
			d = 1
		}
		q := t.cfg.QuantSigma / d
		sigma = math.Sqrt(sigma*sigma + q*q)
	}
	return sigma
}

// bearingLL returns the log likelihood of observing bearing z from `from`
// when the target is at `cand`, under the configured noise model (Gaussian,
// or Student-t when Sensor.TailNu is positive) at the effective sigma.
//
// With innovation gating enabled, a Gaussian-model residual beyond GateSigma
// effective sigmas is clamped to the gate boundary before evaluation, so a
// wild measurement contributes at most the boundary log density. Clamping
// (rather than skipping the term) keeps the per-term density monotone in the
// residual: a candidate position inconsistent with every measurement still
// scores strictly below one consistent with some — skipping would hand it a
// free zero while honest near-misses paid their negative log densities.
//
// Under the Student-t model the clamp is deliberately NOT applied: the
// heavy tail is itself a soft gate (log density falls only logarithmically,
// so a lying sensor's influence is already bounded), and hard-clamping on
// top of it would *raise* far-out residuals to the boundary density,
// flattening the very discrimination the tail preserves. Out-of-gate terms
// still increment the Gated diagnostic counter.
func (t *Tracker) bearingLL(from mathx.Vec2, z float64, cand mathx.Vec2) float64 {
	sigma := t.effSigma(from, cand)
	resid := mathx.AngleDiff(z, cand.Sub(from).Angle())
	if gate := t.cfg.GateSigma; gate > 0 && math.Abs(resid) > gate*sigma {
		t.gated++
		if t.cfg.Sensor.TailNu <= 0 {
			resid = gate * sigma
		}
	}
	if t.cfg.Sensor.TailNu > 0 {
		return mathx.StudentTLogPDF(resid, 0, sigma, t.cfg.Sensor.TailNu)
	}
	return mathx.GaussianLogPDF(resid, 0, sigma)
}

// gatherSharerColumns mirrors the usable sharers' positions and bearings into
// the flat scratch columns the holder-update kernel reads.
func (t *Tracker) gatherSharerColumns(sharers []wsn.NodeID) {
	scr := &t.scr
	scr.sx, scr.sy, scr.sz = scr.sx[:0], scr.sy[:0], scr.sz[:0]
	for _, sid := range sharers {
		pos := t.nw.Node(sid).Pos
		b, _ := t.hasObs(sid)
		scr.sx = append(scr.sx, pos.X)
		scr.sy = append(scr.sy, pos.Y)
		scr.sz = append(scr.sz, b)
	}
}

// holderLL computes one holder's joint log likelihood over the audible
// sharers via the batch kernel. The per-sharer distance doubles as the radio
// range check and the quantization-sigma input — the scalar path computed the
// identical math.Hypot twice (Vec2.Dist in the range test, effSigma's from
// .Dist(cand)), so sharing one evaluation is bit-identical. The distances
// and audibility mask go to the scratch pairDist/pairMask buffers, which the
// caller has grown to len(sharers).
func (t *Tracker) holderLL(id wsn.NodeID, sharers []wsn.NodeID) (ll float64, heard bool, gated int) {
	pos := t.nw.Node(id).Pos
	commR := t.nw.Cfg.CommRadius
	scr := &t.scr
	lossFree := t.nw.LossFree()
	for k, sid := range sharers {
		d := math.Hypot(scr.sx[k]-pos.X, scr.sy[k]-pos.Y)
		scr.pairDist[k] = d
		scr.pairMask[k] = sid == id || (d <= commR && (lossFree || t.nw.Delivers(sid, id)))
	}
	return t.bk.MaskedSum(scr.sx, scr.sy, scr.sz, scr.pairDist, scr.pairMask, pos.X, pos.Y)
}

// scoreSharers runs one round of the quarantine reputation update. The
// consensus reference is the least-squares triangulation of the cohort's own
// bearings — every participant can compute it from the measurement broadcasts
// it already overhears, and unlike the predicted target position it carries
// no prediction error: honest bearings all pass near the true target, so an
// honest node's residual against the fix reflects only measurement noise and
// node quantization, while a lying sensor's bearing line misses the fix by
// construction. Each node's absolute bearing residual against the fix,
// normalized by its effective sigma, feeds the reputation state machine
// (whose median test additionally guards the rounds where faulty bearings
// dragged the fix itself off target).
func (t *Tracker) scoreSharers(sharers []wsn.NodeID) {
	if t.quar == nil || len(sharers) < quarMinCohort {
		return
	}
	ms := t.scr.ms[:0]
	for _, id := range sharers {
		b, _ := t.hasObs(id)
		ms = append(ms, statex.Measurement{From: t.nw.Node(id).Pos, Bearing: b})
	}
	t.scr.ms = ms
	fix, ok := statex.TriangulateBearings(ms)
	if !ok {
		return
	}
	norms := t.scr.norms[:0]
	for _, id := range sharers {
		pos := t.nw.Node(id).Pos
		sigma := t.effSigma(pos, fix)
		b, _ := t.hasObs(id)
		resid := mathx.AngleDiff(b, fix.Sub(pos).Angle())
		norms = append(norms, math.Abs(resid)/sigma)
	}
	t.scr.norms = norms
	t.quar.observe(sharers, norms)
}

// assignLikelihood implements steps 5–6 of CDPF: particle-holding nodes that
// detected the target broadcast their measurements (size Dm); every holder
// computes the joint likelihood of the measurements it heard at its own
// position and multiplies it into its weight. Holders that hear no
// measurement while measurements exist drop their particles (the
// "zero or almost zero density" rule of Section III-B).
//
// With the sensing defenses enabled (DESIGN.md §9) three filters sit between
// a shared measurement and a holder's weight: quarantined nodes' broadcasts
// are ignored by every receiver (they still transmit — a lying sensor does
// not know it is distrusted, so the bytes are still charged), the innovation
// gate clamps individual wildly-inconsistent terms to its boundary, and the
// heavy-tailed noise model bounds the damage of whatever slips through.
func (t *Tracker) assignLikelihood(obs []Observation, res *StepResult) {
	if t.parts.len() == 0 && len(obs) == 0 {
		return
	}
	t.indexObs(obs)
	// Sharers: holders with a measurement (the N_n measurement-sharing
	// nodes of Section II-B).
	sharers := t.scr.sharers[:0]
	for _, id := range t.parts.sorted() {
		if _, ok := t.hasObs(id); ok {
			sharers = append(sharers, id)
		}
	}
	t.scr.sharers = sharers
	for _, id := range sharers {
		t.nw.Transmit(id, wsn.MsgMeasurement, t.cfg.Sizes.Dm)
	}
	if len(sharers) == 0 {
		// No holder has a measurement to share: an information-free
		// iteration for the cloud (possible divergence — handled by the
		// recovery logic in Step). Weights persist.
		return
	}
	// Reputation round, then drop quarantined sharers from the usable set.
	t.scoreSharers(sharers)
	if t.quar != nil {
		usable := sharers[:0]
		for _, id := range sharers {
			if !t.quar.isQuarantined(id) {
				usable = append(usable, id)
			}
		}
		sharers = usable
		if len(sharers) == 0 {
			// Every sharer is quarantined: treat as an information-free
			// iteration rather than trusting known-bad measurements.
			return
		}
	}
	t.gatherSharerColumns(sharers)
	holders := t.snapshotHolders()
	logls := growF(t.scr.logls, len(holders))
	heardAny := growB(t.scr.heard, len(holders))
	t.scr.logls, t.scr.heard = logls, heardAny
	t.scr.pairDist = growF(t.scr.pairDist, len(sharers))
	t.scr.pairMask = growB(t.scr.pairMask, len(sharers))
	for i, id := range holders {
		ll, heard, g := t.holderLL(id, sharers)
		logls[i] = ll
		heardAny[i] = heard
		t.gated += g
	}
	// Common rescaling by the maximum log-likelihood. This is a uniform
	// scale factor (normalization happens next iteration via overhearing),
	// applied here only to keep weights within floating-point range.
	maxLL := math.Inf(-1)
	for i, h := range heardAny {
		if h && logls[i] > maxLL {
			maxLL = logls[i]
		}
	}
	for i, id := range holders {
		if !heardAny[i] {
			// Measurements exist but none audible here: treat as zero
			// density and drop.
			t.parts.remove(id)
			res.Dropped++
			continue
		}
		w := t.parts.w[id] * math.Exp(logls[i]-maxLL)
		if w <= 0 || math.IsNaN(w) {
			t.parts.remove(id)
			res.Dropped++
			continue
		}
		t.parts.w[id] = w
	}
}

// assignNE implements CDPF-NE's weight assignment: no measurement traffic;
// each holder multiplies its weight by its own estimated contribution
// within the estimation area around the predicted position. Holders outside
// the estimation area receive contribution 0 and are dropped.
//
// Additionally, a holder that itself detected the target folds that free
// local knowledge into its weight (the paper's "adaptively determined
// according to the received signal strength" initialization rule, applied
// at every iteration): detection means the target is within the sensing
// radius of the holder, which is strong evidence for the holder-position
// hypothesis and costs zero communication.
func (t *Tracker) assignNE(obs []Observation, res *StepResult) {
	if t.parts.len() == 0 {
		return
	}
	if !res.PredictedValid {
		return // no prediction yet (first iteration): weights persist
	}
	if !EstimateContributionsInto(t.nw, res.Predicted, t.cfg.PredictRadius, &t.scr.contrib) {
		return
	}
	cs := &t.scr.contrib
	t.scr.contribEpoch++
	for i, id := range cs.Nodes {
		t.scr.contribStamp[id] = t.scr.contribEpoch
		t.scr.contribVal[id] = cs.C[i]
	}
	t.indexObs(obs)
	for _, id := range t.snapshotHolders() {
		c := 0.0
		if t.scr.contribStamp[id] == t.scr.contribEpoch {
			c = t.scr.contribVal[id]
		}
		if c <= 0 {
			t.parts.remove(id)
			res.Dropped++
			continue
		}
		w := t.parts.w[id] * c
		if _, detected := t.hasObs(id); detected {
			w *= t.cfg.NEDetectBoost
		}
		t.parts.w[id] = w
	}
}

// createFresh implements the initialization rule and the Section III-B
// creation rule: a node that detects the target but did not receive any
// propagated particles this iteration spawns a new one (e.g. the node
// outside all predicted areas in Fig. 1). When every particle has been lost
// while detections exist, the filter re-initializes on all detectors — the
// same procedure as the first iteration.
//
// A new particle's weight is the mean weight of the surviving particles (so
// it joins at a typical scale) or InitWeight on an empty track; its velocity
// is inferred from the displacement between the detection position and the
// last overheard estimate.
func (t *Tracker) createFresh(obs []Observation, res *StepResult) {
	if len(obs) == 0 {
		return
	}
	reinit := t.parts.len() == 0 // track lost (or first iteration)
	base := t.cfg.InitWeight
	if !reinit {
		total := 0.0
		for _, id := range t.parts.sorted() {
			total += t.parts.w[id]
		}
		base = total / float64(t.parts.len())
	}
	for _, o := range obs {
		if t.parts.has(o.Node) {
			continue
		}
		if !t.nw.Node(o.Node).Active() {
			continue
		}
		if !reinit && t.heardPropagation(o.Node) {
			continue // received propagated particles: no creation
		}
		var vel mathx.Vec2
		if res.EstimateValid {
			vel = t.nw.Node(o.Node).Pos.Sub(res.Estimate).Scale(1 / t.cfg.Dt)
		}
		t.parts.add(o.Node, vel, base)
		res.Created++
	}
}
