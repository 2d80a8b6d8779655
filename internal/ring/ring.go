// Package ring is the cluster membership and session-routing core of the
// cdpfd fleet: rendezvous (highest-random-weight) hashing over a set of
// named backends, plus per-backend health tracked from the daemons'
// tri-state /healthz.
//
// Rendezvous hashing was chosen over a token ring for its exact minimal
// re-homing property: every (backend, key) pair gets a deterministic score,
// a key is owned by its highest-scoring eligible backend, and removing a
// backend re-homes only the keys it owned — each to its next-ranked backend
// — while adding one moves only the keys the newcomer now wins. There is no
// coordinator and no shared state: any process with the same member names
// computes the same owners, which mirrors the paper's no-fusion-center
// stance at the serving tier.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// Backend is one cdpfd process the ring can route to. Name is the stable
// routing identity (scores hash the name, not the address), so a backend can
// restart on a new port without re-homing every session it owns.
type Backend struct {
	Name string `json:"name"`
	Addr string `json:"addr"` // base URL, e.g. http://127.0.0.1:8723
}

// Health is a backend's last observed /healthz phase.
type Health int

const (
	// Unknown: not probed yet. Treated as routable — a fresh gateway must
	// not re-home every session just because its first probe hasn't run.
	Unknown Health = iota
	// Ready: /healthz answered 200 "ready".
	Ready
	// Recovering: the daemon is rebuilding sessions from its WAL; it owns
	// its sessions but answers /v1 with 503 until recovery completes.
	Recovering
	// Draining: the daemon is shutting down; its sessions must move.
	Draining
	// Down: unreachable.
	Down
)

func (h Health) String() string {
	switch h {
	case Ready:
		return "ready"
	case Recovering:
		return "recovering"
	case Draining:
		return "draining"
	case Down:
		return "down"
	default:
		return "unknown"
	}
}

// member is one backend plus its mutable routing state.
type member struct {
	Backend
	health     Health
	evacuating bool // admin-forced exclusion from ownership (migration)
	fails      int  // consecutive probe failures
	lastErr    string
	checked    time.Time
}

// ownerEligible reports whether the member may own sessions: evacuating and
// draining backends are giving their sessions away, down backends cannot
// hold any. Recovering backends keep ownership — their sessions are on their
// disk and will serve again momentarily.
func (m *member) ownerEligible() bool {
	return !m.evacuating && m.health != Draining && m.health != Down
}

// reachable reports whether proxying to the member could possibly succeed.
func (m *member) reachable() bool { return m.health != Down }

// Ring is the membership table. All methods are safe for concurrent use.
type Ring struct {
	mu      sync.RWMutex
	members []*member // sorted by name: deterministic iteration everywhere
	byName  map[string]*member
}

// New builds a ring over the given backends. Names must be unique and
// non-empty.
func New(backends []Backend) (*Ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("ring: no backends")
	}
	r := &Ring{byName: make(map[string]*member, len(backends))}
	for _, b := range backends {
		if b.Name == "" {
			return nil, fmt.Errorf("ring: backend with empty name (addr %q)", b.Addr)
		}
		if _, dup := r.byName[b.Name]; dup {
			return nil, fmt.Errorf("ring: duplicate backend name %q", b.Name)
		}
		m := &member{Backend: b}
		r.byName[b.Name] = m
		r.members = append(r.members, m)
	}
	sort.Slice(r.members, func(i, j int) bool { return r.members[i].Name < r.members[j].Name })
	return r, nil
}

// score is the rendezvous weight of (backend, key): FNV-1a over the backend
// name, a separator that no name can contain, and the key, passed through
// splitmix64's finalizer. FNV-1a mixes its last bytes weakly, so raw sums for
// keys sharing a prefix (load-1-000, load-1-001, ...) rank the backends the
// same way and one backend owns nearly all of them; the finalizer spreads
// every input bit over the whole word. Deterministic across processes and Go
// versions — any gateway with the same member names routes identically.
func score(name, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rankedLocked returns members ordered by descending score for key, ties
// broken by name (scores are 64-bit, ties are effectively theoretical, but
// determinism must not hinge on that). Caller holds r.mu.
func (r *Ring) rankedLocked(key string) []*member {
	ms := make([]*member, len(r.members))
	copy(ms, r.members)
	scores := make(map[*member]uint64, len(ms))
	for _, m := range ms {
		scores[m] = score(m.Name, key)
	}
	sort.Slice(ms, func(i, j int) bool {
		si, sj := scores[ms[i]], scores[ms[j]]
		if si != sj {
			return si > sj
		}
		return ms[i].Name < ms[j].Name
	})
	return ms
}

// Owner returns the backend that owns key: the highest-scoring
// owner-eligible member. ok is false when no member is eligible.
func (r *Ring) Owner(key string) (Backend, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.rankedLocked(key) {
		if m.ownerEligible() {
			return m.Backend, true
		}
	}
	return Backend{}, false
}

// Route returns the proxy attempt order for key: owner-eligible members by
// descending score (the first is the owner), then reachable-but-ineligible
// members by descending score. The tail matters during migration — a
// session not yet moved off an evacuating backend is still served there, so
// a gateway that 404s at the new owner must fall through to the old one.
func (r *Ring) Route(key string) []Backend {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ranked := r.rankedLocked(key)
	out := make([]Backend, 0, len(ranked))
	for _, m := range ranked {
		if m.ownerEligible() {
			out = append(out, m.Backend)
		}
	}
	for _, m := range ranked {
		if !m.ownerEligible() && m.reachable() {
			out = append(out, m.Backend)
		}
	}
	return out
}

// Lookup resolves a backend by name.
func (r *Ring) Lookup(name string) (Backend, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.byName[name]
	if !ok {
		return Backend{}, false
	}
	return m.Backend, true
}

// SetHealth records a probe result. It returns the previous health so
// callers can react to transitions (e.g. auto-evacuate on -> Draining).
func (r *Ring) SetHealth(name string, h Health, errMsg string) (prev Health, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, found := r.byName[name]
	if !found {
		return Unknown, false
	}
	prev = m.health
	m.health = h
	m.lastErr = errMsg
	m.checked = time.Now()
	if h == Down {
		m.fails++
	} else {
		m.fails = 0
	}
	return prev, true
}

// SetEvacuating marks a backend as giving up ownership (or restores it).
// Evacuation survives health probes: a backend being migrated away from must
// not win sessions back just because its /healthz still says ready.
func (r *Ring) SetEvacuating(name string, v bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.byName[name]
	if !ok {
		return false
	}
	m.evacuating = v
	return true
}

// MemberInfo is a point-in-time view of one member, for /cluster and logs.
type MemberInfo struct {
	Backend
	Health     string    `json:"health"`
	Evacuating bool      `json:"evacuating,omitempty"`
	Fails      int       `json:"consecutive_failures,omitempty"`
	LastError  string    `json:"last_error,omitempty"`
	Checked    time.Time `json:"last_checked,omitempty"`
}

// Members snapshots the membership in name order.
func (r *Ring) Members() []MemberInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]MemberInfo, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, MemberInfo{
			Backend: m.Backend, Health: m.health.String(), Evacuating: m.evacuating,
			Fails: m.fails, LastError: m.lastErr, Checked: m.checked,
		})
	}
	return out
}

// HealthOf returns a member's current health.
func (r *Ring) HealthOf(name string) (Health, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.byName[name]
	if !ok {
		return Unknown, false
	}
	return m.health, true
}

// Unsettled reports whether any member is Down or Recovering — the window in
// which a session's owner may be mid-crash-recovery and requests for it
// should park rather than fail. Unknown members don't count: a fresh ring is
// routable by design, and probes resolve Unknown within one interval.
func (r *Ring) Unsettled() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.members {
		if m.health == Down || m.health == Recovering {
			return true
		}
	}
	return false
}

// EligibleCount reports how many members may currently own sessions — the
// gateway's /healthz readiness is "at least one".
func (r *Ring) EligibleCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, m := range r.members {
		if m.ownerEligible() {
			n++
		}
	}
	return n
}
