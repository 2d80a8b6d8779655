package ring

import (
	"fmt"
	"testing"
)

func mustRing(t *testing.T, n int) *Ring {
	t.Helper()
	backends := make([]Backend, n)
	for i := range backends {
		backends[i] = Backend{Name: fmt.Sprintf("b%d", i), Addr: fmt.Sprintf("http://127.0.0.1:%d", 9000+i)}
	}
	r, err := New(backends)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s-%d", i)
	}
	return out
}

// TestOwnerDeterministic: the owner of a key is a pure function of the
// membership names — two independently built rings agree on every key, and
// repeated queries never waver.
func TestOwnerDeterministic(t *testing.T) {
	r1 := mustRing(t, 5)
	r2 := mustRing(t, 5)
	for _, k := range keys(1000) {
		o1, ok1 := r1.Owner(k)
		o2, ok2 := r2.Owner(k)
		if !ok1 || !ok2 {
			t.Fatalf("no owner for %q", k)
		}
		if o1.Name != o2.Name {
			t.Fatalf("rings disagree on %q: %q vs %q", k, o1.Name, o2.Name)
		}
		again, _ := r1.Owner(k)
		if again.Name != o1.Name {
			t.Fatalf("owner of %q wavered: %q then %q", k, o1.Name, again.Name)
		}
	}
}

// TestDistributionUniform: over many keys, each of N backends owns roughly
// 1/N of them. Rendezvous hashing isn't perfectly uniform, but any backend
// deviating more than 30% from the fair share signals a hashing bug (e.g.
// hashing only the name, or only the key, or a hash whose low-entropy tail
// ranks backends identically for keys that share a prefix — cdpfload's
// sequential load-R-NNN session IDs once put every key on one backend).
func TestDistributionUniform(t *testing.T) {
	cases := []struct {
		pattern          string
		nBackends, nKeys int
	}{
		{"s-%d", 5, 10000},
		{"load-1-%03d", 2, 1000},
		{"load-1-%03d", 3, 1000},
		{"load-7-%03d", 3, 1000},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%d", c.pattern, c.nBackends), func(t *testing.T) {
			r := mustRing(t, c.nBackends)
			counts := make(map[string]int)
			for i := 0; i < c.nKeys; i++ {
				k := fmt.Sprintf(c.pattern, i)
				o, ok := r.Owner(k)
				if !ok {
					t.Fatalf("no owner for %q", k)
				}
				counts[o.Name]++
			}
			if len(counts) != c.nBackends {
				t.Fatalf("only %d of %d backends own keys: %v", len(counts), c.nBackends, counts)
			}
			fair := float64(c.nKeys) / float64(c.nBackends)
			for name, n := range counts {
				if dev := float64(n)/fair - 1; dev > 0.30 || dev < -0.30 {
					t.Errorf("backend %s owns %d keys, %.0f%% off the fair share %.0f (all: %v)",
						name, n, dev*100, fair, counts)
				}
			}
		})
	}
}

// TestMinimalRehoming: taking one backend out of ownership (evacuation, the
// migration primitive) moves exactly the keys it owned — every key owned by
// a surviving backend keeps its owner. This is the rendezvous-hashing
// guarantee the migration protocol depends on: draining b2 re-homes b2's
// sessions and no others.
func TestMinimalRehoming(t *testing.T) {
	const nKeys = 2000
	r := mustRing(t, 5)
	before := make(map[string]string, nKeys)
	for _, k := range keys(nKeys) {
		o, _ := r.Owner(k)
		before[k] = o.Name
	}
	const victim = "b2"
	r.SetEvacuating(victim, true)
	moved := 0
	for _, k := range keys(nKeys) {
		o, ok := r.Owner(k)
		if !ok {
			t.Fatalf("no owner for %q after evacuating %s", k, victim)
		}
		switch {
		case before[k] == victim:
			if o.Name == victim {
				t.Fatalf("key %q still owned by evacuating %s", k, victim)
			}
			moved++
		case o.Name != before[k]:
			t.Fatalf("key %q re-homed from %s to %s though its owner survived",
				k, before[k], o.Name)
		}
	}
	if moved == 0 {
		t.Fatal("victim owned no keys; distribution test should have caught this")
	}
	// Restoring the member restores the exact original assignment.
	r.SetEvacuating(victim, false)
	for _, k := range keys(nKeys) {
		o, _ := r.Owner(k)
		if o.Name != before[k] {
			t.Fatalf("key %q not restored to %s after evacuation ended (got %s)",
				k, before[k], o.Name)
		}
	}
}

// TestRouteOrder: Route puts the owner first, every owner-eligible member
// before any ineligible one, and keeps reachable ineligible members in the
// tail (migration fallback); Down members never appear.
func TestRouteOrder(t *testing.T) {
	r := mustRing(t, 4)
	for _, k := range keys(200) {
		owner, _ := r.Owner(k)
		route := r.Route(k)
		if len(route) != 4 {
			t.Fatalf("route for %q has %d members, want 4", k, len(route))
		}
		if route[0].Name != owner.Name {
			t.Fatalf("route[0] for %q is %s, owner is %s", k, route[0].Name, owner.Name)
		}
	}
	r.SetHealth("b1", Draining, "")
	r.SetHealth("b3", Down, "probe: connection refused")
	for _, k := range keys(200) {
		route := r.Route(k)
		if len(route) != 3 {
			t.Fatalf("route for %q has %d members, want 3 (b3 is down): %v", k, len(route), route)
		}
		if last := route[len(route)-1].Name; last != "b1" {
			t.Fatalf("draining b1 should be the fallback tail for %q, got route %v", k, route)
		}
		for _, b := range route {
			if b.Name == "b3" {
				t.Fatalf("down backend b3 in route for %q", k)
			}
		}
	}
}

// TestHealthTransitions: SetHealth reports the previous state (the
// auto-evacuation trigger), failure streaks count only while Down, and
// ownership eligibility follows the documented health table.
func TestHealthTransitions(t *testing.T) {
	r := mustRing(t, 2)
	if prev, ok := r.SetHealth("b0", Ready, ""); !ok || prev != Unknown {
		t.Fatalf("first probe: prev=%v ok=%v, want Unknown true", prev, ok)
	}
	if prev, _ := r.SetHealth("b0", Draining, ""); prev != Ready {
		t.Fatalf("transition to draining: prev=%v, want Ready", prev)
	}
	if _, ok := r.SetHealth("nope", Ready, ""); ok {
		t.Fatal("SetHealth on unknown member reported ok")
	}
	r.SetHealth("b1", Down, "refused")
	r.SetHealth("b1", Down, "refused")
	ms := r.Members()
	for _, m := range ms {
		switch m.Name {
		case "b0":
			if m.Health != "draining" {
				t.Fatalf("b0 health %q, want draining", m.Health)
			}
		case "b1":
			if m.Fails != 2 || m.LastError != "refused" {
				t.Fatalf("b1 fails=%d lastErr=%q, want 2 %q", m.Fails, m.LastError, "refused")
			}
		}
	}
	if n := r.EligibleCount(); n != 0 {
		t.Fatalf("EligibleCount with one draining + one down = %d, want 0", n)
	}
	if _, ok := r.Owner("anything"); ok {
		t.Fatal("Owner found an eligible member among draining+down")
	}
	r.SetHealth("b1", Recovering, "")
	ms = r.Members()
	for _, m := range ms {
		if m.Name == "b1" && m.Fails != 0 {
			t.Fatalf("recovering b1 kept failure streak %d", m.Fails)
		}
	}
	// Recovering members own sessions: their state is on their disk.
	if o, ok := r.Owner("anything"); !ok || o.Name != "b1" {
		t.Fatalf("recovering b1 should own sessions, got %v ok=%v", o, ok)
	}
}

// TestNewValidation: empty sets, empty names, and duplicate names are
// configuration errors, not latent runtime surprises.
func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) succeeded")
	}
	if _, err := New([]Backend{{Name: "", Addr: "x"}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New([]Backend{{Name: "a", Addr: "x"}, {Name: "a", Addr: "y"}}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}
