package core

import (
	"slices"

	"repro/internal/mathx"
	"repro/internal/statex"
	"repro/internal/wsn"
)

// This file implements the tracker's hot-path memory discipline (DESIGN.md
// §10): a dense, node-index-keyed particle store plus a per-tracker scratch
// arena. Node IDs are dense integers in [0, n), so every per-iteration
// map[wsn.NodeID] table of the seed implementation becomes an O(1)-indexed
// array whose validity is tracked by epoch stamps — "clearing" is an epoch
// bump, not an O(n) sweep — and every per-iteration slice is a reused buffer.
// Deterministic iteration order is preserved by iterating explicit sorted ID
// lists, never by ranging over a map.

// particleStore is a dense particle table: one slot per deployed node,
// weight/velocity valid only while the node's stamp matches the current
// epoch, plus a compact list of live holder IDs kept sorted on demand.
type particleStore struct {
	w     []float64
	vel   []mathx.Vec2
	stamp []uint32
	epoch uint32 // stamp[id] == epoch means id holds a particle; starts at 1
	pos   []int32

	ids      []wsn.NodeID // live holders, sorted ascending unless needSort
	needSort bool
}

func newParticleStore(n int) *particleStore {
	return &particleStore{
		w:     make([]float64, n),
		vel:   make([]mathx.Vec2, n),
		stamp: make([]uint32, n),
		epoch: 1,
		pos:   make([]int32, n),
	}
}

// has reports whether node id currently holds a particle.
func (s *particleStore) has(id wsn.NodeID) bool { return s.stamp[id] == s.epoch }

// len returns the number of particle-holding nodes.
func (s *particleStore) len() int { return len(s.ids) }

// weight returns the particle weight on id, or 0 when id holds none.
func (s *particleStore) weight(id wsn.NodeID) float64 {
	if s.has(id) {
		return s.w[id]
	}
	return 0
}

// add installs (or overwrites) the particle on id.
func (s *particleStore) add(id wsn.NodeID, vel mathx.Vec2, w float64) {
	if s.has(id) {
		s.w[id], s.vel[id] = w, vel
		return
	}
	s.stamp[id] = s.epoch
	s.w[id], s.vel[id] = w, vel
	s.pos[id] = int32(len(s.ids))
	if len(s.ids) > 0 && id < s.ids[len(s.ids)-1] {
		s.needSort = true
	}
	s.ids = append(s.ids, id)
}

// remove drops the particle on id (no-op when absent) by swapping it with the
// last live entry, which may unsort the ID list until the next sorted call.
func (s *particleStore) remove(id wsn.NodeID) {
	if !s.has(id) {
		return
	}
	i := s.pos[id]
	last := len(s.ids) - 1
	if int(i) != last {
		moved := s.ids[last]
		s.ids[i] = moved
		s.pos[moved] = i
		s.needSort = true
	}
	s.ids = s.ids[:last]
	s.stamp[id] = 0
}

// clear drops every particle in O(1) by bumping the validity epoch.
func (s *particleStore) clear() {
	s.ids = s.ids[:0]
	s.epoch++
	s.needSort = false
}

// sorted returns the live holder IDs in ascending order. The returned slice
// aliases the store: callers that add or remove particles while iterating
// must snapshot it first (Tracker.snapshotHolders).
func (s *particleStore) sorted() []wsn.NodeID {
	if s.needSort {
		slices.Sort(s.ids)
		for i, id := range s.ids {
			s.pos[id] = int32(i)
		}
		s.needSort = false
	}
	return s.ids
}

// holderWeight pairs a holder with its weight for the MaxHolders cap sort.
type holderWeight struct {
	id wsn.NodeID
	w  float64
}

// scratch is the tracker's reusable per-iteration working memory. Dense
// arrays are node-indexed (length = network size) with epoch-stamped
// validity; slices grow to the high-water mark of the run and are then
// reused, so a steady-state Step performs no heap allocation.
type scratch struct {
	// holders snapshots the sorted holder list across phases that mutate the
	// particle store while iterating.
	holders []wsn.NodeID
	// cand buffers spatial-grid queries (selectRecorders); recorder lists
	// filtered from it alias the same backing array.
	cand []wsn.NodeID
	// positions/ratios buffer one broadcast's recorder geometry.
	positions []mathx.Vec2
	ratios    []float64

	// Recorder contribution accumulators (the seed's recContrib map):
	// Σ ratio·w/W and the weight-weighted velocity, first-touch order in
	// touched, installed in sorted order.
	accStamp []uint32
	accEpoch uint32
	accW     []float64
	accVel   []mathx.Vec2
	touched  []wsn.NodeID

	// Dense observation table (the seed's obsByNode map): bearing by node,
	// valid while the stamp matches.
	obsStamp   []uint32
	obsEpoch   uint32
	obsBearing []float64

	// Dense contribution table for CDPF-NE plus the reusable result of
	// EstimateContributionsInto.
	contribStamp []uint32
	contribEpoch uint32
	contribVal   []float64
	contrib      Contributions

	// Likelihood-phase buffers, parallel to the holder snapshot.
	sharers []wsn.NodeID
	logls   []float64
	heard   []bool

	// Pre-gathered flat columns for the batch kernels (DESIGN.md §16).
	// bx/by/bw/bid mirror this iteration's broadcasts (position, weight,
	// sender); sx/sy/sz mirror the usable sharers (position, bearing).
	bx, by, bw []float64
	bid        []int32
	sx, sy, sz []float64
	// pairDist/pairMask buffer one holder's per-sharer distances and
	// audibility mask for kernel.Bearing.MaskedSum.
	pairDist []float64
	pairMask []bool

	// Overheard-total memo (Tracker.overheardTotalMemo): the total, and
	// whether it was loss-compensated, per node per propagation phase.
	otStamp []uint32
	otEpoch uint32
	otVal   []float64
	otComp  []bool

	// Quarantine-scoring buffers (scoreSharers).
	ms    []statex.Measurement
	norms []float64

	// byWeight buffers the MaxHolders cap sort.
	byWeight []holderWeight
}

func newScratch(n int) scratch {
	return scratch{
		accStamp:     make([]uint32, n),
		accW:         make([]float64, n),
		accVel:       make([]mathx.Vec2, n),
		obsStamp:     make([]uint32, n),
		obsBearing:   make([]float64, n),
		contribStamp: make([]uint32, n),
		contribVal:   make([]float64, n),
		otStamp:      make([]uint32, n),
		otVal:        make([]float64, n),
		otComp:       make([]bool, n),
	}
}

// growF returns s with length n, reusing its backing array when capacity
// allows. Contents are unspecified; callers overwrite every element.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growB is growF for bool slices.
func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// snapshotHolders copies the sorted holder list into the scratch snapshot so
// callers can mutate the particle store while iterating it.
func (t *Tracker) snapshotHolders() []wsn.NodeID {
	t.scr.holders = append(t.scr.holders[:0], t.parts.sorted()...)
	return t.scr.holders
}

// indexObs loads this iteration's observations into the dense bearing table.
func (t *Tracker) indexObs(obs []Observation) {
	t.scr.obsEpoch++
	for _, o := range obs {
		t.scr.obsStamp[o.Node] = t.scr.obsEpoch
		t.scr.obsBearing[o.Node] = o.Bearing
	}
}

// hasObs reports whether node id observed the target this iteration; the
// bearing is valid only when ok.
func (t *Tracker) hasObs(id wsn.NodeID) (float64, bool) {
	if t.scr.obsStamp[id] != t.scr.obsEpoch {
		return 0, false
	}
	return t.scr.obsBearing[id], true
}
