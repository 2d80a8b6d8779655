// Package serve is the online tracking service: it hosts many concurrent
// tracking sessions over the existing core.Tracker.Step API, each session
// being the served twin of one offline sim/cdpfsim run. Sessions are hashed
// onto a fixed pool of shard goroutines (one goroutine per shard, every
// session owned by exactly one shard), measurements stream in over HTTP as
// JSON batches, and per-iteration estimates stream back out as Server-Sent
// Events.
//
// The determinism contract is the whole point of the design: a served
// session fed the observations an offline run would have generated produces
// a trace byte-identical to that offline run (see OfflineTrace and the
// equivalence test). The service is a transport around the reproduction, not
// a fork of it — the per-iteration record construction is one shared code
// path, the tracker RNG is the same sc.RNG(1) stream cdpfsim consumes, and
// measurements survive the JSON hop exactly (encoding/json round-trips
// finite float64 values bit-exactly).
//
// Overload degrades predictably instead of OOMing: every session has a
// bounded ingestion-queue budget (429 when the caller overruns it) and every
// shard a bounded work queue (503 when the server as a whole is saturated),
// so memory is bounded by shards x queue depth and in-flight sessions keep
// stepping while new work is shed.
package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
	cellspec "repro/internal/spec"
	"repro/internal/statex"
	"repro/internal/trace"
)

// SessionSpec is the body of POST /v1/sessions: the scenario (network
// deployment seed, target model, noise) and tracker configuration for one
// session. Both are the repository's own config structs, so the service
// validates them through exactly the paths scenario.Build and
// core.NewTracker already enforce.
type SessionSpec struct {
	// ID optionally names the session; the server assigns "s-<n>" when
	// empty. IDs must be unique among live sessions.
	ID string `json:"id,omitempty"`
	// Scenario is the environment. Zero fields default like
	// scenario.Default: Steps 10, Dt 5, SigmaN 0.05, the paper's target.
	Scenario scenario.Params `json:"scenario"`
	// Cell, when non-nil, configures the whole session — scenario, loss
	// model, fault schedule, tracker config — from one declarative spec/v1
	// cell (see internal/spec; "cdpfsim -spec" and cdpfmatrix run the same
	// cells offline). Mutually exclusive with Scenario/Tracker/UseNE. Only
	// serveable cells are admitted: algo cdpf or cdpf-ne with no duty-cycle,
	// mobility, or multi-target axis, since those need machinery the online
	// step loop does not run.
	Cell *cellspec.Axes `json:"cell,omitempty"`
	// Tracker, when non-nil, is the full CDPF configuration; nil selects
	// core.DefaultConfig(UseNE).
	Tracker *core.Config `json:"tracker,omitempty"`
	// UseNE selects the CDPF-NE variant when Tracker is nil.
	UseNE bool `json:"use_ne,omitempty"`
	// Queue is the per-session ingestion-queue budget (measurement batches
	// admitted but not yet stepped); 0 defaults to DefaultSessionQueue.
	// Admission beyond the budget is rejected with 429.
	Queue int `json:"queue,omitempty"`
}

// DefaultSessionQueue is the per-session ingestion budget when
// SessionSpec.Queue is zero.
const DefaultSessionQueue = 16

// normalize fills scenario defaults (mirroring scenario.Default) and
// resolves the tracker config. Validation proper happens in scenario.Build
// and core.NewTracker.
func (s SessionSpec) normalize() SessionSpec {
	if s.Cell != nil {
		// Cell sessions: the cell is the whole configuration. Normalize it
		// and the queue budget only, leaving Scenario zero and Tracker nil so
		// buildSession can reject mixed specs.
		ax := s.Cell.Normalized()
		s.Cell = &ax
		if s.Queue <= 0 {
			s.Queue = DefaultSessionQueue
		}
		return s
	}
	if s.Scenario.Steps == 0 {
		s.Scenario.Steps = 10
	}
	if s.Scenario.Dt == 0 {
		s.Scenario.Dt = 5
	}
	if s.Scenario.SigmaN == 0 {
		s.Scenario.SigmaN = 0.05
	}
	if s.Scenario.Target.StepDt == 0 {
		s.Scenario.Target = statex.DefaultTargetConfig()
	}
	if s.Tracker == nil {
		cfg := core.DefaultConfig(s.UseNE)
		s.Tracker = &cfg
	}
	if s.Queue <= 0 {
		s.Queue = DefaultSessionQueue
	}
	return s
}

// Measurement is one node's bearing observation, the wire form of
// core.Observation.
type Measurement struct {
	Node    int     `json:"node"`
	Bearing float64 `json:"bearing"`
}

// Batch carries the measurements of one filter iteration. K must be the
// session's next unstepped iteration: the service is an online filter, not a
// random-access replayer, so out-of-order batches are rejected at admission.
type Batch struct {
	K   int           `json:"k"`
	Obs []Measurement `json:"obs"`
}

// IngestRequest is the body of POST /v1/sessions/{id}/measurements: one or
// more consecutive iteration batches.
type IngestRequest struct {
	Batches []Batch `json:"batches"`
}

// IngestResponse reports how many batches were admitted to the session's
// queue.
type IngestResponse struct {
	Accepted int `json:"accepted"`
	// NextK is the next iteration the session expects to be fed.
	NextK int `json:"next_k"`
}

// SessionInfo is the body of GET /v1/sessions/{id} and the create response.
type SessionInfo struct {
	ID         string  `json:"id"`
	Shard      int     `json:"shard"`
	Iterations int     `json:"iterations"` // total filter iterations (Steps+1)
	NextK      int     `json:"next_k"`     // next iteration to be fed
	Stepped    int     `json:"stepped"`    // iterations completed
	Done       bool    `json:"done"`
	Queue      int     `json:"queue"`  // ingestion budget
	Queued     int     `json:"queued"` // batches admitted, not yet stepped
	Nodes      int     `json:"nodes"`
	RMSE       float64 `json:"rmse"` // 0 until the first estimate exists (RMSE is strictly positive after)
}

// Estimate is one SSE "estimate" event payload: the canonical per-iteration
// trace record, exactly as the offline trace would hold it. The stream URL
// names the session, so the payload carries no session identity — the wire
// bytes and the offline records stay one shape.
type Estimate = trace.Record

// SessionList is the body of GET /admin/sessions: the live session IDs,
// sorted.
type SessionList struct {
	Sessions []string `json:"sessions"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
// RequestID echoes the request's X-Request-Id so a failure logged anywhere
// in a cluster can be traced back to the originating call.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func errf(format string, args ...interface{}) errorBody {
	return errorBody{Error: fmt.Sprintf(format, args...)}
}
