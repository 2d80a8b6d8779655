package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/trace"
)

// openStore opens the durability directory, failing the test on error.
func openStore(t *testing.T, dir string) (*durable.Store, *durable.Recovery) {
	t.Helper()
	st, rec, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// crash simulates a kill -9 for a manager under test: the store is closed
// (no further durable writes can land, exactly like a dead process) and the
// manager is deliberately NOT drained — drain would write final snapshots,
// which a crashed process never gets to do. The leaked shard goroutines are
// cleaned up at test end.
func crash(t *testing.T, m *Manager, st *durable.Store) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Drain)
}

// feedRange ingests batches[from:to] one at a time with admission retries.
func feedRange(t *testing.T, m *Manager, id string, batches []Batch, from, to int) {
	t.Helper()
	for _, b := range batches[from:to] {
		for {
			_, err := m.Ingest(id, IngestRequest{Batches: []Batch{b}})
			if err == nil {
				break
			}
			var ae *AdmitError
			if !asAdmit(err, &ae) || (ae.Status != 429 && ae.Status != 503) {
				t.Fatalf("ingest k=%d: %v", b.K, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// waitStepped polls until the session has stepped n iterations.
func waitStepped(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := m.Info(id)
		if ok && info.Stepped >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("session %q never reached %d steps", id, n)
}

// collectAll subscribes and drains the full record stream.
func collectAll(t *testing.T, m *Manager, id string) []trace.Record {
	t.Helper()
	snap, ch, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	recs := append([]trace.Record(nil), snap...)
	if ch != nil {
		for rec := range ch {
			recs = append(recs, rec)
		}
	}
	return recs
}

// assertTwinIdentity byte-compares a served record set against the offline
// twin of its spec — the recovery correctness bar: not approximately equal,
// identical.
func assertTwinIdentity(t *testing.T, spec SessionSpec, got []trace.Record) {
	t.Helper()
	offline, err := OfflineTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != offline.Len() {
		t.Fatalf("served %d records, offline twin has %d", len(got), offline.Len())
	}
	served := &trace.Recorder{Algo: offline.Algo, Density: offline.Density, Seed: offline.Seed, Records: got}
	var off, srv strings.Builder
	if err := offline.WriteCSV(&off); err != nil {
		t.Fatal(err)
	}
	if err := served.WriteCSV(&srv); err != nil {
		t.Fatal(err)
	}
	if off.String() != srv.String() {
		t.Fatalf("recovered trace differs from offline twin:\noffline:\n%s\nserved:\n%s",
			off.String(), srv.String())
	}
}

// TestRecoverResumesMidRunByteIdentical is the core crash-recovery contract
// at the package level: crash a durable manager mid-session, rebuild from
// disk into a manager with a different shard count, finish the feed, and
// require the stitched trace to be byte-identical to the offline twin.
func TestRecoverResumesMidRunByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name          string
		snapshotEvery int
		wantReplayed  int64 // batches re-stepped from the WAL on recovery
	}{
		// Snapshot cadence 4 and crash at step 5: recovery starts from the
		// step-4 snapshot and replays exactly one WAL batch.
		{"snapshot-plus-tail", 4, 1},
		// Cadence beyond the run: no snapshot exists, the WAL rebuilds all
		// five steps.
		{"wal-only", 1000, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := testSpec("crashy", 31)
			batches, err := Observations(spec)
			if err != nil {
				t.Fatal(err)
			}

			st1, _ := openStore(t, dir)
			m1 := NewManager(ManagerConfig{Shards: 2, Store: st1, SnapshotEvery: tc.snapshotEvery})
			if _, err := m1.Create(spec); err != nil {
				t.Fatal(err)
			}
			feedRange(t, m1, spec.ID, batches, 0, 5)
			waitStepped(t, m1, spec.ID, 5)
			crash(t, m1, st1)

			st2, rec := openStore(t, dir)
			defer st2.Close()
			m2 := NewManager(ManagerConfig{Shards: 3, Store: st2, SnapshotEvery: tc.snapshotEvery})
			defer m2.Drain()
			if err := m2.Restore(rec); err != nil {
				t.Fatal(err)
			}
			if got := st2.Counters().RecoveredSessions.Load(); got != 1 {
				t.Fatalf("RecoveredSessions = %d, want 1", got)
			}
			if got := st2.Counters().ReplayedBatches.Load(); got != tc.wantReplayed {
				t.Fatalf("ReplayedBatches = %d, want %d", got, tc.wantReplayed)
			}
			info, ok := m2.Info(spec.ID)
			if !ok || info.Done || info.Stepped != 5 || info.NextK != 5 {
				t.Fatalf("recovered info = %+v, want stepped=5 next_k=5 live", info)
			}
			feedRange(t, m2, spec.ID, batches, info.NextK, len(batches))
			assertTwinIdentity(t, spec, collectAll(t, m2, spec.ID))
		})
	}
}

// TestRecoverTruncatesTornTail damages the WAL tail after the crash (the
// torn-write case): recovery must truncate to the valid prefix, resume from
// the surviving step count, and still finish byte-identically once the
// client refeeds from NextK.
func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("torn", 40)
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}

	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1, SnapshotEvery: 1000})
	if _, err := m1.Create(spec); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m1, spec.ID, batches, 0, 5)
	waitStepped(t, m1, spec.ID, 5)
	crash(t, m1, st1)

	// Tear the last frame: chop a few bytes off every non-empty segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (%v)", err)
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 3 {
			if err := os.Truncate(seg, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}
	}

	st2, rec := openStore(t, dir)
	defer st2.Close()
	if st2.Counters().TruncatedTails.Load() == 0 {
		t.Fatal("no torn tail detected")
	}
	m2 := NewManager(ManagerConfig{Shards: 2, Store: st2, SnapshotEvery: 1000})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	info, ok := m2.Info(spec.ID)
	if !ok || info.Done {
		t.Fatalf("recovered info = %+v, want live session", info)
	}
	if info.Stepped != 4 {
		t.Fatalf("stepped = %d after tearing the last record, want 4", info.Stepped)
	}
	feedRange(t, m2, spec.ID, batches, info.NextK, len(batches))
	assertTwinIdentity(t, spec, collectAll(t, m2, spec.ID))
}

// TestRecoverFinishedSessionReadback: a session that completed before the
// crash must come back readable (archived records, Done info), not lost and
// not live.
func TestRecoverFinishedSessionReadback(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("done-before-crash", 52)
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}

	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1})
	if _, err := m1.Create(spec); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m1, spec.ID, batches, 0, len(batches))
	waitStepped(t, m1, spec.ID, len(batches))
	crash(t, m1, st1)

	st2, rec := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(ManagerConfig{Shards: 2, Store: st2})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	info, ok := m2.Info(spec.ID)
	if !ok || !info.Done {
		t.Fatalf("recovered info = %+v, want done", info)
	}
	assertTwinIdentity(t, spec, collectAll(t, m2, spec.ID))
}

// TestRecoverIDReuseIgnoresStaleSnapshot: finish a session, recreate its ID
// with a different spec, crash, recover. The on-disk snapshot still belongs
// to the first incarnation; its spec bytes no longer match the WAL's latest
// create record, so recovery must rebuild the second incarnation from the
// WAL alone.
func TestRecoverIDReuseIgnoresStaleSnapshot(t *testing.T) {
	dir := t.TempDir()
	first := testSpec("reused", 31)
	second := testSpec("reused", 77)
	firstBatches, err := Observations(first)
	if err != nil {
		t.Fatal(err)
	}
	secondBatches, err := Observations(second)
	if err != nil {
		t.Fatal(err)
	}

	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1, SnapshotEvery: 1000})
	if _, err := m1.Create(first); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m1, first.ID, firstBatches, 0, len(firstBatches))
	waitStepped(t, m1, first.ID, len(firstBatches))
	// The completion snapshot for the first incarnation is on disk now.
	if _, err := m1.Create(second); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m1, second.ID, secondBatches, 0, 2)
	waitStepped(t, m1, second.ID, 2)
	crash(t, m1, st1)

	st2, rec := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(ManagerConfig{Shards: 2, Store: st2, SnapshotEvery: 1000})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	// Replayed exactly the second incarnation's two steps — had the stale
	// snapshot been trusted, the session would resume at the wrong step with
	// the wrong scenario.
	if got := st2.Counters().ReplayedBatches.Load(); got != 2 {
		t.Fatalf("ReplayedBatches = %d, want 2", got)
	}
	info, ok := m2.Info(second.ID)
	if !ok || info.Done || info.Stepped != 2 {
		t.Fatalf("recovered info = %+v, want live at step 2", info)
	}
	feedRange(t, m2, second.ID, secondBatches, info.NextK, len(secondBatches))
	assertTwinIdentity(t, second, collectAll(t, m2, second.ID))
}

// TestDrainSnapshotsResumeWithoutReplay: a clean shutdown (drain) snapshots
// every live session, so the next boot resumes purely from snapshots.
func TestDrainSnapshotsResumeWithoutReplay(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("drained", 63)
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}

	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1, SnapshotEvery: 1000})
	if _, err := m1.Create(spec); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m1, spec.ID, batches, 0, 6)
	waitStepped(t, m1, spec.ID, 6)
	m1.Drain()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(ManagerConfig{Shards: 2, Store: st2, SnapshotEvery: 1000})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	if got := st2.Counters().ReplayedBatches.Load(); got != 0 {
		t.Fatalf("ReplayedBatches = %d after clean drain, want 0", got)
	}
	info, ok := m2.Info(spec.ID)
	if !ok || info.Stepped != 6 {
		t.Fatalf("recovered info = %+v, want stepped=6", info)
	}
	feedRange(t, m2, spec.ID, batches, info.NextK, len(batches))
	assertTwinIdentity(t, spec, collectAll(t, m2, spec.ID))
}

// TestRecoveredAutoIDsDoNotCollide: server-assigned IDs must continue past
// recovered sessions instead of colliding with them.
func TestRecoveredAutoIDsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1})
	spec := testSpec("", 31) // server assigns s-1
	s, err := m1.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.id != "s-1" {
		t.Fatalf("auto ID = %q, want s-1", s.id)
	}
	crash(t, m1, st1)

	st2, rec := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(ManagerConfig{Shards: 2, Store: st2})
	defer m2.Drain()
	if err := m2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Create(testSpec("", 32))
	if err != nil {
		t.Fatal(err)
	}
	if s2.id == "s-1" {
		t.Fatal("post-recovery auto ID collided with a recovered session")
	}
}

// TestReplayRebuildsTraceFromWAL: the offline replay path (cdpfreplay)
// reconstructs a production session's trace from the WAL alone.
func TestReplayRebuildsTraceFromWAL(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("replayable", 85)
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := openStore(t, dir)
	m1 := NewManager(ManagerConfig{Shards: 2, Store: st1})
	if _, err := m1.Create(spec); err != nil {
		t.Fatal(err)
	}
	feedRange(t, m1, spec.ID, batches, 0, len(batches))
	waitStepped(t, m1, spec.ID, len(batches))
	m1.Drain()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := durable.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(rec, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertTwinIdentity(t, spec, replayed.Records)

	if _, err := Replay(rec, "nonesuch"); err == nil {
		t.Fatal("replay of unknown session succeeded")
	}
}

// TestRecoveringGateAndHealthz: while the recovery gate is up, /v1/ serves
// 503 and /healthz says "recovering"; afterwards the daemon is "ready".
func TestRecoveringGateAndHealthz(t *testing.T) {
	met := NewMetrics(nil)
	mgr := NewManager(ManagerConfig{Shards: 1, Metrics: met})
	defer mgr.Drain()
	srv := NewServer(mgr, met)
	srv.SetRecovering(true)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 64)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, strings.TrimSpace(string(buf[:n]))
	}
	if code, body := get("/healthz"); code != 503 || body != "recovering" {
		t.Fatalf("recovering healthz = %d %q", code, body)
	}
	if code, _ := get("/v1/sessions/nope"); code != 503 {
		t.Fatalf("recovering API status = %d, want 503", code)
	}
	// Metrics stay scrapeable during recovery.
	if code, _ := get("/metrics"); code != 200 {
		t.Fatalf("recovering metrics status = %d, want 200", code)
	}
	srv.SetRecovering(false)
	if code, body := get("/healthz"); code != 200 || body != "ready" {
		t.Fatalf("ready healthz = %d %q", code, body)
	}
	if code, _ := get("/v1/sessions/nope"); code != 404 {
		t.Fatalf("ready API status = %d, want 404", code)
	}
}

// TestRecoverLegacyParallelismSpec: data directories written before the
// tracker lost its Parallelism knob carry "Parallelism":1 inside the admitted
// tracker config of every WAL create record and snapshot. Recovery decodes
// stored specs leniently (unknown fields ignored), so such sessions must
// still restore — from the WAL alone and from a snapshot plus WAL tail — and
// finish byte-identical to their offline twins, with the stored bytes kept
// verbatim.
func TestRecoverLegacyParallelismSpec(t *testing.T) {
	for _, tc := range []struct {
		name         string
		snapshotAt   int // 0: no snapshot
		wantReplayed int64
	}{
		{"wal-only", 0, 5},
		{"snapshot-plus-tail", 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := testSpec("legacy", 41).normalize()
			current, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			const field = `"MaxHolders":0,`
			if strings.Count(string(current), field) != 1 {
				t.Fatalf("admitted spec lacks a single %s: %s", field, current)
			}
			legacy := []byte(strings.Replace(string(current), field, field+`"Parallelism":1,`, 1))
			batches, err := Observations(spec)
			if err != nil {
				t.Fatal(err)
			}

			// Write the directory the way the old daemon did: create record
			// with the legacy spec bytes, five logged batches, optionally a
			// snapshot taken mid-run by a session carrying those bytes.
			st1, _ := openStore(t, dir)
			if err := st1.LogCreate(0, spec.ID, legacy); err != nil {
				t.Fatal(err)
			}
			s, err := newSession(spec.ID, 0, spec)
			if err != nil {
				t.Fatal(err)
			}
			s.specJSON = legacy
			for _, b := range batches[:5] {
				if err := st1.LogBatch(0, batchRecord(spec.ID, b)); err != nil {
					t.Fatal(err)
				}
				if s.stepped < tc.snapshotAt {
					s.step(b)
					if s.stepped == tc.snapshotAt {
						if err := st1.SaveSnapshot(s.snapshot()); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if err := st1.Close(); err != nil {
				t.Fatal(err)
			}

			st2, rec := openStore(t, dir)
			defer st2.Close()
			m := NewManager(ManagerConfig{Shards: 2, Store: st2, SnapshotEvery: 1000})
			defer m.Drain()
			if err := m.Restore(rec); err != nil {
				t.Fatal(err)
			}
			if got := st2.Counters().ReplayedBatches.Load(); got != tc.wantReplayed {
				t.Fatalf("ReplayedBatches = %d, want %d", got, tc.wantReplayed)
			}
			info, ok := m.Info(spec.ID)
			if !ok || info.Stepped != 5 {
				t.Fatalf("recovered info = %+v, want stepped=5", info)
			}
			m.mu.Lock()
			kept := string(m.sessions[spec.ID].specJSON)
			m.mu.Unlock()
			if kept != string(legacy) {
				t.Fatalf("recovered session re-encoded its stored spec:\n got %s\nwant %s", kept, legacy)
			}
			feedRange(t, m, spec.ID, batches, info.NextK, len(batches))
			assertTwinIdentity(t, spec, collectAll(t, m, spec.ID))
		})
	}
}
