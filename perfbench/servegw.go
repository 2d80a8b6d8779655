package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/gateway"
	"repro/internal/ring"
	"repro/internal/serve"
	"repro/internal/trace"
)

// trackRate is the serve-gw open-loop arrival rate in tracks per second,
// well below the 2-core host's capacity so the schedule, not a backlog,
// sets the offered load.
const trackRate = 50

// backend is one in-process cdpfd: durable store, session manager, HTTP
// server on a loopback listener, wired as cmd/cdpfd wires them by default.
type backend struct {
	name  string
	store *durable.Store
	met   *serve.Metrics
	mgr   *serve.Manager
	srv   *http.Server
	url   string
	done  chan struct{}
}

func startBackend(name, dir string, tr *httpTracer) (*backend, error) {
	policy, err := durable.ParseFsyncPolicy("interval") // cdpfd's -fsync default
	if err != nil {
		return nil, err
	}
	store, recovery, err := durable.Open(durable.Options{Dir: dir, Fsync: policy})
	if err != nil {
		return nil, err
	}
	met := serve.NewMetrics(nil)
	met.SetDurability(store.Counters())
	mgr := serve.NewManager(serve.ManagerConfig{
		Shards: runtime.GOMAXPROCS(0), ShardQueue: 256, MaxSessions: 4096,
		Metrics: met, Store: store, SnapshotEvery: 32,
	})
	met.SetQueueDepthFunc(mgr.QueueDepth)
	h := serve.NewServer(mgr, met)
	h.SetRecovering(true)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Drain()
		store.Close()
		return nil, err
	}
	b := &backend{name: name, store: store, met: met, mgr: mgr, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	b.srv = serve.NewHTTPServer(tr.wrap("backend", h))
	go func() {
		defer close(b.done)
		_ = b.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	if err := mgr.Restore(recovery); err != nil {
		b.close()
		return nil, err
	}
	h.SetRecovering(false)
	return b, nil
}

// close drains the manager (snapshotting live sessions, closing streams),
// shuts the HTTP server and closes the store.
func (b *backend) close() {
	b.mgr.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // streams are already closed by the drain
	<-b.done
	_ = b.store.Close()
}

// stack is the system under test for serve-gw: a gateway with its health
// prober in front of two backends, all on loopback.
type stack struct {
	dir      string
	backends []*backend
	gw       *gateway.Gateway
	srv      *http.Server
	url      string
	done     chan struct{}
	stop     context.CancelFunc
	probing  chan struct{}
}

func startStack(dir string, tr *httpTracer) (*stack, error) {
	st := &stack{dir: dir, done: make(chan struct{}), probing: make(chan struct{})}
	var members []ring.Backend
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("b%d", i)
		b, err := startBackend(name, filepath.Join(dir, name), tr)
		if err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, b)
		members = append(members, ring.Backend{Name: name, Addr: b.url})
	}
	r, err := ring.New(members)
	if err != nil {
		st.close()
		return nil, err
	}
	// Zero timeouts and budgets select the gateway's built-ins, which are
	// cdpfgw's flag defaults.
	if st.gw, err = gateway.New(gateway.Config{Ring: r}); err != nil {
		st.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.stop = cancel
	prober := &ring.Prober{
		Ring: r, Interval: 500 * time.Millisecond, FlapK: 2, Jitter: 0.2,
		OnTransition: func(name string, from, to ring.Health) { st.gw.NoteHealth(name, from, to) },
	}
	go func() {
		defer close(st.probing)
		prober.Run(ctx)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.srv = serve.NewHTTPServer(tr.wrap("gateway", st.gw))
	go func() {
		defer close(st.done)
		_ = st.srv.Serve(ln)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for r.EligibleCount() < len(members) {
		if time.Now().After(deadline) {
			st.close()
			return nil, fmt.Errorf("backends not ready after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return st, nil
}

func (st *stack) close() {
	if st.stop != nil {
		st.stop()
		<-st.probing
	}
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = st.srv.Shutdown(ctx)
		cancel()
		<-st.done
	}
	for _, b := range st.backends {
		b.close()
	}
	_ = os.RemoveAll(st.dir)
}

// backendFor returns the in-process backend with the given name.
func (st *stack) backendFor(name string) *backend {
	for _, b := range st.backends {
		if b.name == name {
			return b
		}
	}
	return nil
}

// httpTracer records a span per /v1 request at a server boundary, keyed by
// X-Request-Id, while on.
type httpTracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	byRID map[string][]span
}

func newHTTPTracer(epoch time.Time) *httpTracer {
	return &httpTracer{epoch: epoch, byRID: map[string][]span{}}
}

// wrap returns h itself for a nil tracer, so untraced runs add nothing.
func (t *httpTracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Since(t.epoch)
		h.ServeHTTP(w, r)
		end := time.Since(t.epoch)
		rid := r.Header.Get("X-Request-Id")
		s := span{Name: layer + "." + requestKind(r), Start: int64(start), End: int64(end), RID: rid}
		t.mu.Lock()
		t.byRID[rid] = append(t.byRID[rid], s)
		t.mu.Unlock()
	})
}

func (t *httpTracer) take(rid, name string) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.byRID[rid] {
		if s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

func requestKind(r *http.Request) string {
	switch {
	case strings.HasSuffix(r.URL.Path, "/measurements"):
		return "ingest"
	case strings.HasSuffix(r.URL.Path, "/estimates"):
		return "estimates"
	case r.Method == http.MethodPost:
		return "create"
	}
	return "info"
}

// trackInput is one cell's session spec, pre-encoded ingest body and
// reference digest.
type trackInput struct {
	op     op
	ingest []byte
	n      int
}

// trackResult is one track's outcome.
type trackResult struct {
	ok, wrong bool
	err       error
	lat, late time.Duration
	backend   string
	// Traced tracks only: client spans (root first) and the publish
	// timeline.
	spans                        []span
	ingestDone, lastSub, lastCli time.Duration
}

// runServe runs serve-gw.
func runServe(cfg config, ws workloadSpec) (*report, error) {
	rep := &report{}
	epoch := time.Now()
	var tr *httpTracer
	if cfg.Trace {
		tr = newHTTPTracer(epoch)
	}
	var st *stack
	var inputs []trackInput
	var digests map[string]string
	ids := newSessionIDs(cfg.Seed)
	// Set-up: load and validate the cells and digests, generate every
	// cell's measurement feed, start a fresh stack on fresh data
	// directories, and run one warm-up pass of tracks. Earlier set-ups are
	// torn down untimed.
	for i := 0; i < cfg.Setups; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		ops, err := loadOps(cfg.Dir, cfg.Workload)
		if err != nil {
			return nil, err
		}
		if digests = cfg.Digests; digests == nil {
			if digests, err = loadDigests(cfg.Dir); err != nil {
				return nil, err
			}
		}
		inputs = inputs[:0]
		for _, o := range opOrder(ops, cfg.Seed) {
			if digests[o.Key] == "" {
				return nil, fmt.Errorf("no reference digest for %s (run: perfbench digests)", o.Key)
			}
			ax := o.Axes
			batches, err := serve.Observations(serve.SessionSpec{Cell: &ax})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", o.Key, err)
			}
			body, err := json.Marshal(serve.IngestRequest{Batches: batches})
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, trackInput{op: o, ingest: body, n: len(batches)})
		}
		dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("serve-gw-%d-%d", os.Getpid(), i))
		if st, err = startStack(dir, tr); err != nil {
			return nil, err
		}
		c := newTrackClient()
		for j := 0; j < ws.warmOps; j++ {
			in := inputs[j%len(inputs)]
			id := ids.next()
			rep.sessionIDs = append(rep.sessionIDs, id)
			res := runTrack(c, st, in, id, digests[in.op.Key], time.Now(), nil)
			if res.err != nil && !res.wrong { // wrong outputs are counted by the timed segments
				c.CloseIdleConnections()
				st.close()
				return nil, fmt.Errorf("warm-up track %s: %w", in.op.Key, res.err)
			}
		}
		c.CloseIdleConnections()
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	defer st.close()
	for _, in := range inputs {
		rep.passOrder = append(rep.passOrder, in.op.Key)
	}

	seconds := cfg.Seconds
	if cfg.Trace {
		seconds /= 2
	}
	var err error
	if rep.timed, err = serveSegment(cfg, ws, st, inputs, digests, seconds, ids, nil, rep); err != nil {
		return nil, err
	}
	if cfg.Trace {
		seg, err := serveSegment(cfg, ws, st, inputs, digests, seconds, ids, tr, rep)
		if err != nil {
			return nil, err
		}
		rep.traced = &seg
		rep.perLayer = seg.layers
		if err := seg.ledger.write(filepath.Join(cfg.WorkDir, fmt.Sprintf("%s-seed%d-spans.jsonl", cfg.Workload, cfg.Seed))); err != nil {
			return nil, err
		}
	}
	rep.peakKB = selfPeakKB()
	return rep, nil
}

// sessionIDs mints the run's session IDs: 16 hex digits drawn from the
// workload seed, as a client using random IDs would. Sequential IDs share
// long prefixes, which FNV-based shard and ring hashing spread unevenly;
// random IDs make placement a property of the hashing, not of the seed.
type sessionIDs struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newSessionIDs(seed int64) *sessionIDs {
	return &sessionIDs{rng: rand.New(rand.NewSource(seed ^ 0x5e55)), seen: map[string]bool{}}
}

// next returns an ID not handed out before in this run.
func (s *sessionIDs) next() string {
	for {
		id := fmt.Sprintf("%016x", s.rng.Uint64())
		if !s.seen[id] {
			s.seen[id] = true
			return id
		}
	}
}

// newTrackClient is one in-flight slot's client: its own transport with a
// single keep-alive connection, so a track's requests run in sequence on
// one connection.
func newTrackClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		IdleConnTimeout: time.Minute,
	}}
}

// runTrack drives one session through the gateway: create, one
// multi-batch ingest, then the estimate stream to its end. The output is
// checked against the cell's reference digest.
func runTrack(c *http.Client, st *stack, in trackInput, id, want string, due time.Time, tc *httpTracer) (res trackResult) {
	start := time.Now()
	res.late = start.Sub(due)
	since := func(t time.Time) int64 {
		if tc == nil {
			return 0
		}
		return int64(t.Sub(tc.epoch))
	}
	if tc != nil {
		res.spans = []span{
			{Parent: -1, Name: "op", Start: since(due)},
			{Parent: 0, Name: "loadgen.wait", Start: since(due), End: since(start)},
		}
	}
	clientSpan := func(name, rid string, t0 time.Time) {
		if tc != nil {
			res.spans = append(res.spans, span{Parent: 0, Name: name, Start: since(t0), End: since(time.Now()), RID: rid})
		}
	}
	fail := func(err error) trackResult {
		res.err = err
		return res
	}

	ax := in.op.Axes
	body, err := json.Marshal(serve.SessionSpec{ID: id, Cell: &ax})
	if err != nil {
		return fail(err)
	}
	rid := id + "/create"
	t0 := time.Now()
	resp, err := post(c, st.url+"/v1/sessions", rid, body)
	if err != nil {
		return fail(err)
	}
	res.backend = resp.Header.Get("X-Backend")
	if err := drain(resp, http.StatusCreated); err != nil {
		return fail(fmt.Errorf("create: %w", err))
	}
	clientSpan("client.create", rid, t0)

	// Traced tracks watch the owning backend's in-process stream to time
	// when the last record is published.
	var subDone chan time.Time
	var stopSub chan struct{}
	if tc != nil {
		b := st.backendFor(res.backend)
		if b == nil {
			return fail(fmt.Errorf("create answered by unknown backend %q", res.backend))
		}
		_, ch, err := b.mgr.Subscribe(id)
		if err != nil {
			return fail(err)
		}
		subDone, stopSub = make(chan time.Time, 1), make(chan struct{})
		go func() {
			var last time.Time
			defer func() { subDone <- last }() // buffered: never blocks
			for {
				select {
				case rec, ok := <-ch:
					if !ok {
						return
					}
					if rec.K == in.n-1 {
						last = time.Now()
					}
				case <-stopSub:
					b.mgr.Unsubscribe(id, ch)
					return
				}
			}
		}()
		defer func() {
			// On success the stream closes at session completion; a failed
			// track stops watching at once.
			var last time.Time
			if res.err == nil {
				select {
				case last = <-subDone:
				case <-time.After(5 * time.Second):
				}
			}
			if last.IsZero() {
				close(stopSub)
				last = <-subDone
			}
			if !last.IsZero() {
				res.lastSub = time.Duration(since(last))
			}
		}()
	}

	rid = id + "/ingest"
	t0 = time.Now()
	resp, err = post(c, st.url+"/v1/sessions/"+id+"/measurements", rid, in.ingest)
	if err != nil {
		return fail(err)
	}
	if err := drain(resp, http.StatusAccepted); err != nil {
		return fail(fmt.Errorf("ingest: %w", err))
	}
	res.ingestDone = time.Duration(since(time.Now()))
	clientSpan("client.ingest", rid, t0)

	rid = id + "/estimates"
	t0 = time.Now()
	req, err := http.NewRequest(http.MethodGet, st.url+"/v1/sessions/"+id+"/estimates", nil)
	if err != nil {
		return fail(err)
	}
	req.Header.Set("X-Request-Id", rid)
	resp, err = c.Do(req)
	if err != nil {
		return fail(err)
	}
	recs, err := readStream(resp)
	if err != nil {
		return fail(fmt.Errorf("estimates: %w", err))
	}
	end := time.Now()
	res.lastCli = time.Duration(since(end))
	clientSpan("client.readback", rid, t0)
	res.lat = end.Sub(due)
	if tc != nil {
		res.spans[0].End = since(end)
	}
	if len(recs) != in.n {
		return fail(fmt.Errorf("estimates: %d records, want %d", len(recs), in.n))
	}
	if recordsDigest(recs) != want {
		res.wrong = true
		return fail(fmt.Errorf("session %s (%s): output digest differs from the reference", id, in.op.Key))
	}
	res.ok = true
	return res
}

func post(c *http.Client, url, rid string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	return c.Do(req)
}

// drain reads and closes a response body (so the connection is reused)
// and checks its status.
func drain(resp *http.Response, want int) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return nil
}

// readStream parses an SSE estimate stream up to its "done" event, then
// reads the body to its end so the connection is reused.
func readStream(resp *http.Response) ([]trace.Record, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var recs []trace.Record
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "done" {
				_, err := io.Copy(io.Discard, resp.Body)
				return recs, err
			}
			var r trace.Record
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &r); err != nil {
				return nil, err
			}
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// serveSegment runs the open loop: track i is due at i/trackRate seconds,
// at most GOMAXPROCS tracks are in flight, and each track is timed from its
// due time. It runs whole passes over the cells.
func serveSegment(cfg config, ws workloadSpec, st *stack, inputs []trackInput, digests map[string]string, seconds float64, ids *sessionIDs, tr *httpTracer, rep *report) (segment, error) {
	passes := cfg.Passes
	if passes <= 0 {
		passes = max(1, int(float64(trackRate)*seconds/float64(len(inputs))+0.5))
	}
	n := passes * len(inputs)
	slots := runtime.GOMAXPROCS(0)
	clients := make(chan *http.Client, slots)
	for i := 0; i < slots; i++ {
		clients <- newTrackClient()
	}
	results := make([]trackResult, n)
	var before probe
	if tr != nil {
		tr.on.Store(true)
		before = st.probe()
	}
	var depthMax atomic.Int64
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		if tr == nil {
			return
		}
		t := time.NewTicker(500 * time.Microsecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-t.C:
				d := 0
				for _, b := range st.backends {
					d += b.mgr.QueueDepth()
				}
				if int64(d) > depthMax.Load() {
					depthMax.Store(int64(d))
				}
			}
		}
	}()

	cpu0 := selfCPU()
	var inflight, inflightMax atomic.Int64
	var wg sync.WaitGroup
	interval := time.Second / trackRate
	t0 := time.Now().Add(5 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		c := <-clients
		if v := inflight.Add(1); v > inflightMax.Load() {
			inflightMax.Store(v)
		}
		id := ids.next()
		rep.sessionIDs = append(rep.sessionIDs, id)
		in := inputs[i%len(inputs)]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runTrack(c, st, in, id, digests[in.op.Key], due, tr)
			inflight.Add(-1)
			clients <- c
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	cpu := selfCPU() - cpu0
	close(stopSampler)
	<-samplerDone
	close(clients)
	for c := range clients {
		c.CloseIdleConnections()
	}

	seg := segment{wall: wall, cpu: cpu, attempted: n, byKey: map[string][]float64{}}
	for i, r := range results {
		switch {
		case r.ok:
			seg.ok++
			seg.latMs = append(seg.latMs, float64(r.lat)/1e6)
			seg.round = append(seg.round, i*ws.rounds/n)
			key := inputs[i%len(inputs)].op.Key
			seg.byKey[key] = append(seg.byKey[key], float64(r.lat)/1e6)
		case r.wrong:
			seg.failed++
			seg.wrong++
			fmt.Fprintln(os.Stderr, "perfbench:", r.err)
		default:
			seg.failed++
			fmt.Fprintln(os.Stderr, "perfbench: track failed:", r.err)
		}
	}
	if tr != nil {
		tr.on.Store(false)
		seg.layers = serveLayers(st, tr, results, before, st.probe(), int64(depthMax.Load()), inflightMax.Load(), &seg)
	}
	return seg, nil
}

// probe is a snapshot of the stack's own counters.
type probe struct {
	prom    map[string]float64 // backend metric sums
	gw      map[string]float64
	steps   int64
	wal     durableTotals
	gcN     uint64
	gcPause float64
}

type durableTotals struct{ records, bytes, fsyncs, snaps, snapNs int64 }

func (st *stack) probe() probe {
	p := probe{prom: map[string]float64{}}
	for _, b := range st.backends {
		var buf bytes.Buffer
		_ = b.met.WritePrometheus(&buf) // writes to a buffer cannot fail
		for k, v := range parseProm(buf.String()) {
			p.prom[k] += v
		}
		p.steps += b.met.Steps()
		c := b.store.Counters()
		p.wal.records += c.WALRecords.Load()
		p.wal.bytes += c.WALBytes.Load()
		p.wal.fsyncs += c.Fsyncs.Load()
		p.wal.snaps += c.Snapshots.Load()
		p.wal.snapNs += c.SnapshotNanos.Load()
	}
	rec := httptest.NewRecorder()
	st.gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	p.gw = parseProm(rec.Body.String())
	p.gcN, p.gcPause = gcStats()
	return p
}

// parseProm sums Prometheus text samples by metric name (labels dropped).
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, ln := range strings.Split(text, "\n") {
		if ln == "" || ln[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(ln, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err == nil {
			out[name] += v
		}
	}
	return out
}

// serveLayers assembles the traced serve-gw segment's ledger and per-layer
// metrics: each track's client spans get the gateway span with the same
// X-Request-Id as child, and that gets the backend span.
func serveLayers(st *stack, tr *httpTracer, results []trackResult, a, b probe, depthMax, inflightMax int64, seg *segment) map[string]metric {
	g := newLedger()
	var hop, lag, sse, late []float64
	perBackend := map[string]int{}
	for i, r := range results {
		late = append(late, float64(r.late)/1e6)
		if !r.ok {
			continue
		}
		perBackend[r.backend]++
		spans := append([]span(nil), r.spans...)
		for ci, cs := range r.spans {
			if cs.RID == "" {
				continue
			}
			kind := strings.TrimPrefix(cs.Name, "client.")
			if kind == "readback" {
				kind = "estimates"
			}
			gs, ok := tr.take(cs.RID, "gateway."+kind)
			if !ok {
				continue
			}
			gs.Parent = ci
			spans = append(spans, gs)
			if bs, ok := tr.take(cs.RID, "backend."+kind); ok {
				bs.Parent = len(spans) - 1
				spans = append(spans, bs)
				hop = append(hop, float64(gs.dur()-bs.dur())/1e3)
			}
		}
		g.add(i, spans)
		if r.lastSub > 0 {
			lag = append(lag, float64(r.lastSub-r.ingestDone)/1e6)
			sse = append(sse, float64(r.lastCli-r.lastSub)/1e6)
		}
	}
	seg.ledger = g
	ops := float64(max(seg.ok, 1))
	m := zeroLayers()
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("serve.create_ms", g.medianMs("client.create"))
	set("serve.ingest_ms", g.medianMs("client.ingest"))
	set("serve.readback_ms", g.medianMs("client.readback"))
	set("serve.http_ingest_us", g.medianMs("backend.ingest")*1e3)
	if dc := b.prom["cdpfd_step_latency_seconds_count"] - a.prom["cdpfd_step_latency_seconds_count"]; dc > 0 {
		set("serve.step_us", (b.prom["cdpfd_step_latency_seconds_sum"]-a.prom["cdpfd_step_latency_seconds_sum"])/dc*1e6)
	}
	set("serve.publish_lag_ms", median(lag))
	set("serve.sse_ms", median(sse))
	set("serve.queue_depth_max", float64(depthMax))
	set("serve.rejected", b.prom["cdpfd_rejected_total"]-a.prom["cdpfd_rejected_total"])
	if steps := b.steps - a.steps; steps > 0 {
		set("durable.wal_bytes_per_step", float64(b.wal.bytes-a.wal.bytes)/float64(steps))
	}
	set("durable.wal_records", float64(b.wal.records-a.wal.records))
	set("durable.fsyncs", float64(b.wal.fsyncs-a.wal.fsyncs))
	set("durable.snapshots", float64(b.wal.snaps-a.wal.snaps))
	if n := b.wal.snaps - a.wal.snaps; n > 0 {
		set("durable.snapshot_ms", float64(b.wal.snapNs-a.wal.snapNs)/float64(n)/1e6)
	}
	set("gateway.hop_us", median(hop))
	set("gateway.retries", b.gw["cdpfgw_route_retries_total"]-a.gw["cdpfgw_route_retries_total"])
	set("gateway.parked", b.gw["cdpfgw_parked_requests_total"]-a.gw["cdpfgw_parked_requests_total"])
	var maxN, sum float64
	for _, bk := range st.backends {
		v := float64(perBackend[bk.name])
		sum += v
		maxN = max(maxN, v)
	}
	if sum > 0 {
		set("ring.skew", maxN/(sum/float64(len(st.backends))))
	}
	set("loadgen.late_p99_ms", quantile(late, 99))
	set("loadgen.inflight_max", float64(inflightMax))
	set("proc.gc_cycles_per_op", float64(b.gcN-a.gcN)/ops)
	set("proc.gc_pause_ms", float64(b.gcPause-a.gcPause)/1e6/ops)
	setLedger(m, g)
	return m
}
