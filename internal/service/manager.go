// Package service turns the reproduction into a serving system: a job
// manager layered on the experiment engine that submits, polls, and
// cancels analysis jobs, deduplicates identical in-flight requests
// (singleflight), and answers repeated requests from an LRU result cache
// keyed by content digests — so identical requests hit the cache instead
// of re-simulating, and concurrent distinct requests saturate the worker
// pool. The HTTP face of the package is in http.go; cmd/simd is the
// daemon.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lru"
	"repro/internal/network"
)

// DefaultCacheEntries is the result-cache capacity when Options leaves it
// zero.
const DefaultCacheEntries = 256

// DefaultQueueDepth is the admission bound when Options leaves it zero:
// how many submitted jobs may wait for an execution slot before new
// submissions are rejected with ErrQueueFull (HTTP 429).
const DefaultQueueDepth = 256

// DefaultPointCacheEntries sizes the point-level scenario cache when
// Options leaves it zero. It is every run's point store, standalone or
// in a cluster, where a member keeps the points it computed and no
// others. Points are small (a coordinate plus a few measurements), so
// the default keeps several full grids resident.
const DefaultPointCacheEntries = 8192

// ErrQueueFull rejects a submission when the admission queue is at
// capacity — the backpressure signal the HTTP layer maps to 429 +
// Retry-After.
var ErrQueueFull = errors.New("service: job queue full")

// ErrDraining rejects a submission while the manager drains for
// shutdown — the signal the HTTP layer maps to 503 + Retry-After so
// well-behaved clients back off and retry against a restarted server.
// Cache hits and singleflight attaches are still served while draining:
// they cost no new computation.
var ErrDraining = errors.New("service: draining, not accepting new jobs")

// maxRetainedJobs bounds the completed-job history kept for polling;
// oldest finished jobs are pruned first. In-flight jobs are never pruned.
const maxRetainedJobs = 1024

// Options configures a Manager. The zero value is usable: default engine,
// memory-only store, DefaultCacheEntries.
type Options struct {
	// Engine is the worker pool jobs run on; nil selects engine.Default().
	Engine *engine.Engine
	// Store is the content-addressed artifact store; nil creates a
	// memory-only store.
	Store *Store
	// CacheEntries sizes the LRU result cache: 0 means
	// DefaultCacheEntries, negative disables caching.
	CacheEntries int
	// QueueDepth bounds how many jobs may wait for an execution slot: 0
	// means DefaultQueueDepth, negative disables admission control.
	// Submissions beyond the bound fail with ErrQueueFull instead of
	// queueing without limit.
	QueueDepth int
	// PointCacheEntries sizes the point-level scenario cache (the
	// partial-grid resume store): 0 means DefaultPointCacheEntries,
	// negative disables it.
	PointCacheEntries int
	// ReplayShards sets every scenario's intra-point replay parallelism
	// (core.Scenario.ReplayShards): 0 or less lets the planner choose by
	// grid size and by each program's shard note, 1 forces serial replay,
	// n > 1 requests n PDES shards per replay. Results are byte-identical either way. No CLI sets it; it
	// is for programmatic callers, such as a check that a sharded replay
	// matches a serial one.
	ReplayShards int
	// Logger receives the manager's structured logs (job lifecycle, HTTP
	// access lines). Nil discards them — the library default, so tests
	// and embedders stay quiet unless they opt in.
	Logger *slog.Logger
	// Cluster, when set, makes the manager a member of a DHT-sharded
	// simulation cluster: specs forward whole to the node that owns their
	// digest, and the points a member computes stay in its point cache
	// (see cluster.go). The manager registers itself as the node's
	// executor.
	Cluster *cluster.Node
}

// Manager is the job manager: it owns the result cache, the singleflight
// table of in-flight requests, and the job registry. Safe for concurrent
// use.
type Manager struct {
	eng   *engine.Engine
	store *Store
	cache *lru.Cache[reply] // replies by task key
	// memo maps a request body to what it resolved to, so a repeated body
	// is served without being decoded or resolved again (open). It is as
	// large as the result cache, whose replies it leads to.
	memo  *lru.Cache[memoEntry]
	log   *slog.Logger
	start time.Time
	// slots bounds how many jobs execute concurrently. The engine's own
	// semaphore only bounds intra-job fan-out — its caller-runs
	// discipline executes jobs inline on saturated pools — so without
	// this gate every concurrent Submit would run a simulation on its
	// own goroutine regardless of -workers. Jobs beyond the bound queue
	// in state pending.
	slots chan struct{}

	// points is the point-level scenario cache: completed grid points
	// keyed by per-point spec digests, consulted by the planner before
	// scheduling any simulation. It sits beside the spec-level result
	// cache — that one answers identical specs byte-for-byte, this one
	// lets overlapping specs resume each other's grids. Nil when
	// disabled.
	points *lru.Cache[core.ScenarioPoint]

	// queueDepth bounds how many jobs may wait for a slot (0 = no bound).
	queueDepth int

	// replayShards is Options.ReplayShards, stamped onto every scenario
	// spec the manager executes.
	replayShards int

	// node is the cluster membership (nil when standalone).
	node *cluster.Node

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in submission order; live from head on
	head     int      // order[:head] is the pruned prefix
	inflight map[string]*Job
	seq      int64
	deduped  uint64
	queued   int    // jobs admitted but not yet holding a slot
	rejected uint64 // submissions refused with ErrQueueFull
	draining bool   // Drain called: no new computations admitted
}

// scenarioPointStore adapts the point LRU to the planner's PointCache:
// every run's point store (ScenarioRequest.spec).
type scenarioPointStore struct {
	c *lru.Cache[core.ScenarioPoint]
}

func (s scenarioPointStore) GetPoint(d string) (core.ScenarioPoint, bool) { return s.c.Get(d) }
func (s scenarioPointStore) PutPoint(d string, pt core.ScenarioPoint)     { s.c.Put(d, pt) }

// pointCounters returns the point LRU's lifetime lookup hits and
// misses, none when it is disabled.
func (m *Manager) pointCounters() (hits, misses uint64) {
	if m.points == nil {
		return 0, 0
	}
	return m.points.Counters()
}

// admit reserves an admission-queue place for a fresh job; m.mu must be
// held. Reports false — after counting the rejection — when the queue
// is full.
func (m *Manager) admitLocked() bool {
	if m.queueDepth > 0 && m.queued >= m.queueDepth {
		m.rejected++
		return false
	}
	m.queued++
	return true
}

// unqueue releases the admission-queue place (the job acquired a slot
// or was cancelled while waiting).
func (m *Manager) unqueue() {
	m.mu.Lock()
	m.queued--
	m.mu.Unlock()
}

// NewManager builds a manager from opts.
func NewManager(opts Options) (*Manager, error) {
	eng := opts.Engine
	if eng == nil {
		eng = engine.Default()
	}
	store := opts.Store
	if store == nil {
		var err error
		store, err = NewStore("")
		if err != nil {
			return nil, err
		}
	}
	entries := opts.CacheEntries
	if entries == 0 {
		entries = DefaultCacheEntries
	}
	depth := opts.QueueDepth
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	if depth < 0 {
		depth = 0 // unbounded
	}
	pointEntries := opts.PointCacheEntries
	if pointEntries == 0 {
		pointEntries = DefaultPointCacheEntries
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	m := &Manager{
		eng:          eng,
		store:        store,
		cache:        lru.New[reply](entries),
		memo:         lru.New[memoEntry](entries),
		log:          logger,
		start:        time.Now(),
		slots:        make(chan struct{}, eng.Workers()),
		queueDepth:   depth,
		replayShards: opts.ReplayShards,
		jobs:         make(map[string]*Job),
		inflight:     make(map[string]*Job),
	}
	if pointEntries > 0 {
		m.points = lru.New[core.ScenarioPoint](pointEntries)
	}
	if opts.Cluster != nil {
		m.attachCluster(opts.Cluster)
	}
	return m, nil
}

// Engine returns the manager's worker pool.
func (m *Manager) Engine() *engine.Engine { return m.eng }

// Store returns the manager's artifact store.
func (m *Manager) Store() *Store { return m.store }

// task is a prepared request: the scenario it runs (req as a wire spec
// a forward can send, sc resolved), the spec digest the cluster routes
// it on, the digest of the platform it registered, and render, which
// builds a per-kind reply from the scenario result (nil for a scenario
// reply, the result itself). key is the result-cache and singleflight
// key: the digest, with "#kind" appended for a per-kind reply — its own
// cache entry, while its points are shared with the scenario's. plat is
// the platform when translate already resolved and registered it, so
// that spec does not resolve it again.
type task struct {
	kind, key, digest, platform string
	req                         ScenarioRequest
	sc                          *core.Scenario
	plat                        *network.Platform
	render                      func(*core.ScenarioResult) any
}

// prepare validates a request once and resolves it into its task.
func (m *Manager) prepare(req Request) (*task, error) {
	t, err := req.translate(m)
	if err != nil {
		return nil, err
	}
	if t.sc, t.digest, t.platform, err = t.req.spec(m, t.plat, t.platform); err != nil {
		return nil, err
	}
	t.key = t.digest
	if t.kind != KindScenario {
		t.key += "#" + t.kind
	}
	return t, nil
}

// reply builds the task's reply from the scenario result: a scenario
// reply assembled frame by frame, a per-kind reply rendered and
// marshalled. A result shaped other than the render expects can only
// come from a peer's bytes; it is an error, not a crash.
func (t *task) reply(res *core.ScenarioResult) (r reply, err error) {
	if t.render == nil {
		return assemble(res)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("service: render %s reply: %v", t.kind, p)
		}
	}()
	b, err := json.Marshal(t.render(res))
	return reply{body: b}, err
}

// memoEntry is what a request body resolved to: its task's kind and key,
// and the digest of the platform it registered.
type memoEntry struct {
	kind, key, platform string
}

// memoKey keys the body memo: SHA-256 over the route and the raw body.
func memoKey(route string, body []byte) string {
	h := sha256.New()
	io.WriteString(h, route)
	h.Write(body)
	var sum [sha256.Size]byte
	return string(h.Sum(sum[:0]))
}

// open is the serve protocol's identity step for a raw request body on a
// route, shared by the HTTP routes and the cluster executor. A body the
// memo knows is served by recall, with no decode and no resolution.
// Otherwise the body is decoded, prepared and begun (begin); once it
// prepares, it enters the memo — unless its resolution read the store
// for a trace or platform digest, which can leave the store, so that a
// body over a deleted trace still fails. A task is returned only for a
// body that was prepared.
func (m *Manager) open(route string, body []byte, decode decoder, mode admission) (j *Job, t *task, fresh bool, err error) {
	sum := memoKey(route, body)
	if j := m.recall(sum); j != nil {
		return j, nil, false, nil
	}
	req, err := decode(body)
	if err != nil {
		return nil, nil, false, err
	}
	if t, err = m.prepare(req); err != nil {
		return nil, nil, false, err
	}
	if t.req.Trace == "" && (t.req.Platform == nil || t.req.Platform.Digest == "") {
		m.memo.Put(sum, memoEntry{kind: t.kind, key: t.key, platform: t.platform})
	}
	j, fresh, err = m.begin(t, mode)
	return j, t, fresh, err
}

// recall serves a memoized body through begin's first two steps. It
// first refreshes the body's platform in the store, as registering it
// again would; it returns nil — the body takes the full path — when the
// body is not memoized, its platform left the store, or neither a job
// nor a reply holds its key.
func (m *Manager) recall(sum string) *Job {
	e, ok := m.memo.Get(sum)
	if !ok || !m.store.touchPlatform(e.platform) {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// The full path's begin counts the cache miss, if there is one.
	return m.attachLocked(e.kind, e.key, false)
}

// admission is how a fresh job reaches execution.
type admission int

const (
	// slotted: a local job takes an admission-queue place (ErrQueueFull
	// beyond the bound), then forwards whole to its digest's owner or,
	// when this node owns it or the forward fails, waits for an
	// execution slot.
	slotted admission = iota
	// fromPeer: a spec a peer forwarded to this node, its owner, takes no
	// queue place or slot and never forwards, so two saturated nodes
	// waiting on each other cannot deadlock (the engine's semaphore still
	// bounds simulation).
	fromPeer
)

// submitBody submits a raw request body on a route (open): Submit for
// the HTTP routes.
func (m *Manager) submitBody(route string, body []byte, decode decoder) (*Job, error) {
	j, t, fresh, err := m.open(route, body, decode, slotted)
	if fresh {
		go m.execute(j, t, slotted, nil)
	}
	return j, err
}

// Submit prepares and schedules a request. Three outcomes:
//
//   - result cache hit: the returned job is already done, carrying the
//     cached bytes, and no engine work was (or will be) spawned;
//   - identical request in flight: the existing job is returned
//     (singleflight dedupe) — both submitters wait on one computation;
//   - otherwise a new job starts on the manager's engine — unless the
//     admission queue is full, which fails with ErrQueueFull (cache hits
//     and singleflight attaches are never rejected: they cost no slot).
//
// Validation and reference-resolution errors surface synchronously. In
// a cluster a new job whose spec digest another node owns runs there
// and its result is served and cached here — the cross-node
// singleflight. The returned Job looks the same either way.
func (m *Manager) Submit(req Request) (*Job, error) {
	t, err := m.prepare(req)
	if err != nil {
		return nil, err
	}
	j, fresh, err := m.begin(t, slotted)
	if fresh {
		go m.execute(j, t, slotted, nil)
	}
	return j, err
}

// begin is the serve protocol's identity step, shared by Submit, the
// NDJSON stream, and the cluster executor: attach to an identical job in
// flight, else answer from the result cache with a born-done job, else —
// unless draining, or (slotted) the admission queue is full — register a
// fresh job in flight. fresh reports the last case: the caller must then
// execute the job. Singleflight is checked before the cache under one
// lock: a job's result may be landing in the cache while it is in
// flight, but execute fills the cache before the job leaves the table,
// so no window lets identical work rerun.
func (m *Manager) begin(t *task, mode admission) (j *Job, fresh bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j := m.attachLocked(t.kind, t.key, true); j != nil {
		return j, false, nil
	}
	if m.draining {
		return nil, false, ErrDraining
	}
	if mode == slotted && !m.admitLocked() {
		return nil, false, ErrQueueFull
	}
	j = m.newJobLocked(t.kind, t.key, false)
	m.inflight[t.key] = j
	return j, true, nil
}

// attachLocked is begin's first two steps: attach to the job in flight
// under key, else answer from the result cache with a born-done job. It
// returns nil when neither holds key, counting a cache miss only when
// countMiss is set. m.mu must be held.
func (m *Manager) attachLocked(kind, key string, countMiss bool) *Job {
	if j, ok := m.inflight[key]; ok {
		m.deduped++
		return j
	}
	get := m.cache.TryGet
	if countMiss {
		get = m.cache.Get
	}
	r, ok := get(key)
	if !ok {
		return nil
	}
	j := m.newJobLocked(kind, key, true)
	j.complete(r, nil)
	return j
}

// execute is the serve protocol's execution step for a job begin
// registered fresh: obtain its reply (see compute), fill the cache before
// leaving the in-flight table, and complete the job. run, when set,
// computes the reply in place of the task's own scenario run — the
// stream writes its frames from it.
func (m *Manager) execute(j *Job, t *task, mode admission, run func(context.Context) (reply, error)) (reply, error) {
	r, err := m.compute(j, t, mode, run)
	if err == nil {
		m.cache.Put(t.key, r)
	}
	m.mu.Lock()
	delete(m.inflight, t.key)
	m.mu.Unlock()
	j.complete(r, err)
	attrs := []slog.Attr{
		slog.String("job_id", j.ID()),
		slog.String("kind", j.Kind()),
		slog.String("state", string(j.State())),
		slog.Duration("elapsed", time.Since(j.created)),
	}
	level := slog.LevelInfo
	if err != nil {
		level = slog.LevelWarn
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	m.log.LogAttrs(context.Background(), level, "job finished", attrs...)
	return r, err
}

// compute obtains a job's reply. A slotted job first forwards to its
// spec digest's owner (cluster.go) and, when that is another node that
// answers, serves its result; otherwise it waits for an execution slot —
// or for cancellation while queued. Then the job runs here.
func (m *Manager) compute(j *Job, t *task, mode admission, run func(context.Context) (reply, error)) (reply, error) {
	admitted := time.Now()
	if mode == slotted {
		if r, ok := m.forward(j, t); ok {
			m.unqueue()
			return r, nil
		}
		select {
		case m.slots <- struct{}{}:
			m.unqueue()
			mQueueWait.ObserveSince(admitted)
			defer func() { <-m.slots }()
		case <-j.ctx.Done():
			m.unqueue()
			return reply{}, j.ctx.Err()
		}
	}
	j.markRunning()
	m.log.LogAttrs(j.ctx, slog.LevelInfo, "job running",
		slog.String("job_id", j.ID()),
		slog.String("kind", j.Kind()),
		slog.String("spec_digest", j.Key()),
		slog.Duration("queue_wait", time.Since(admitted)))
	if run != nil {
		return run(j.ctx)
	}
	res, err := core.RunScenario(j.ctx, m.eng, *t.sc)
	if err != nil {
		return reply{}, err
	}
	return t.reply(res)
}

// newJobLocked registers a job; m.mu must be held.
func (m *Manager) newJobLocked(kind, key string, cached bool) *Job {
	m.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:      fmt.Sprintf("job-%08d", m.seq),
		kind:    kind,
		key:     key,
		cached:  cached,
		created: time.Now(),
		state:   JobPending,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.pruneLocked()
	return j
}

// pruneLocked evicts the oldest finished jobs beyond maxRetainedJobs.
// In-flight jobs are skipped, and the scan stops at the last eviction
// it needs, so a full table costs one step per submit, not a walk. The
// skipped IDs move up against the first unscanned one and head moves
// past the evicted ones; the live range is copied down only once the
// dead prefix is over half the slice, so copying costs O(1) per submit.
func (m *Manager) pruneLocked() {
	excess := len(m.order) - m.head - maxRetainedJobs
	if excess <= 0 {
		return
	}
	i, pinned := m.head, 0
	for ; excess > 0 && i < len(m.order); i++ {
		id := m.order[i]
		if m.jobs[id].Finished() {
			delete(m.jobs, id)
			m.order[i] = ""
			excess--
			continue
		}
		pinned++
	}
	// Stable, in place: walk back from i, moving each pinned ID to the
	// highest free slot below i.
	w := i
	for r := i - 1; w > i-pinned; r-- {
		if m.order[r] != "" {
			w--
			m.order[w] = m.order[r]
		}
	}
	m.head = w
	if m.head > len(m.order)/2 {
		n := copy(m.order, m.order[m.head:])
		clear(m.order[n:])
		m.order, m.head = m.order[:n], 0
	}
}

// Drain stops admitting new computations and waits for every in-flight
// job — batch and streamed — to reach a terminal state. It returns how
// many jobs were still in flight when the drain began (the flushed
// count). Cached reads, singleflight attaches, and job polling keep
// working throughout: the point is to stop new work, not to break
// waiters. If ctx expires first Drain returns its cause; the manager
// stays draining either way, so a retried Drain only waits, never
// re-admits.
// In a cluster the node drains first: it marks every response and
// request Draining so peers drop it from their member sets.
func (m *Manager) Drain(ctx context.Context) (int, error) {
	if m.node != nil {
		m.node.Drain()
	}
	m.mu.Lock()
	m.draining = true
	flushing := len(m.inflight)
	m.mu.Unlock()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		m.mu.Lock()
		n := len(m.inflight)
		m.mu.Unlock()
		if n == 0 {
			return flushing, nil
		}
		select {
		case <-ctx.Done():
			return flushing, context.Cause(ctx)
		case <-tick.C:
		}
	}
}

// Draining reports whether Drain has been called.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Job returns a job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists the retained jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	live := m.order[m.head:]
	out := make([]*Job, 0, len(live))
	for _, id := range live {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel cancels a job's context and returns the job. Jobs sharing the
// computation through singleflight dedupe are all cancelled — the
// computation is one. Returns false for unknown IDs; cancelling a
// finished job is a no-op.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Job(id)
	if !ok {
		return nil, false
	}
	j.cancel()
	return j, true
}

// UptimeSec reports how long the manager has been serving. Cheap —
// liveness probes hit it; the full MetricsSnapshot walks the job table.
func (m *Manager) UptimeSec() float64 { return time.Since(m.start).Seconds() }

// Metrics is a point-in-time snapshot of the manager's serving counters.
type Metrics struct {
	UptimeSec    float64 `json:"uptime_sec"`
	Workers      int     `json:"workers"`
	CacheEntries int     `json:"cache_entries"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	Deduped      uint64  `json:"deduped"`
	// QueueDepth is how many admitted jobs currently wait for an
	// execution slot; QueueLimit is the admission bound (0 = unbounded);
	// Rejected counts submissions refused with ErrQueueFull.
	QueueDepth int    `json:"queue_depth"`
	QueueLimit int    `json:"queue_limit"`
	Rejected   uint64 `json:"rejected"`
	// The point-level scenario cache (partial-grid resume store).
	PointCacheEntries int            `json:"point_cache_entries"`
	PointCacheHits    uint64         `json:"point_cache_hits"`
	PointCacheMisses  uint64         `json:"point_cache_misses"`
	StoredTraces      int            `json:"stored_traces"`
	StoredPlatform    int            `json:"stored_platforms"`
	Jobs              map[string]int `json:"jobs"`
	Engine            engine.Stats   `json:"engine"`
}

// MetricsSnapshot gathers the current serving counters.
func (m *Manager) MetricsSnapshot() Metrics {
	hits, misses := m.cache.Counters()
	traces, platforms := m.store.Counts()
	byState := map[string]int{}
	m.mu.Lock()
	deduped := m.deduped
	queued, rejected := m.queued, m.rejected
	for _, id := range m.order[m.head:] {
		byState[string(m.jobs[id].State())]++
	}
	m.mu.Unlock()
	out := Metrics{
		UptimeSec:      time.Since(m.start).Seconds(),
		Workers:        m.eng.Workers(),
		CacheEntries:   m.cache.Len(),
		CacheHits:      hits,
		CacheMisses:    misses,
		Deduped:        deduped,
		QueueDepth:     queued,
		QueueLimit:     m.queueDepth,
		Rejected:       rejected,
		StoredTraces:   traces,
		StoredPlatform: platforms,
		Jobs:           byState,
		Engine:         m.eng.Stats(),
	}
	if m.points != nil {
		out.PointCacheEntries = m.points.Len()
		out.PointCacheHits, out.PointCacheMisses = m.pointCounters()
	}
	return out
}

// ---------------------------------------------------------------------------
// Job

// JobState is a job's lifecycle position.
type JobState string

// The job lifecycle: Pending -> Running -> Done | Failed | Cancelled.
// Cache hits are born Done.
const (
	JobPending   JobState = "pending"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Job is one submitted request. All exported methods are safe for
// concurrent use.
type Job struct {
	id      string
	kind    string
	key     string
	cached  bool
	created time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    JobState
	started  time.Time
	finished time.Time
	result   reply
	err      error
}

// ID returns the job's identifier ("job-00000001").
func (j *Job) ID() string { return j.id }

// Kind returns the request kind ("analyze", ...).
func (j *Job) Kind() string { return j.kind }

// Key returns the key the job is served under: its spec digest, with
// "#<kind>" appended for a per-kind endpoint's reply.
func (j *Job) Key() string { return j.key }

// Cached reports whether the job was answered from the result cache.
func (j *Job) Cached() bool { return j.cached }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Finished reports whether the job reached a terminal state.
func (j *Job) Finished() bool {
	switch j.State() {
	case JobDone, JobFailed, JobCancelled:
		return true
	}
	return false
}

func (j *Job) markRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobPending {
		j.state = JobRunning
		j.started = time.Now()
	}
}

// requeue undoes markRunning for a job whose forward failed: it waits
// for a local slot as pending, with no start time.
func (j *Job) requeue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobRunning {
		j.state = JobPending
		j.started = time.Time{}
	}
}

// complete moves the job to its terminal state and wakes every waiter.
func (j *Job) complete(result reply, err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = JobDone
		j.result = result
	case j.ctx.Err() != nil:
		j.state = JobCancelled
		j.err = j.ctx.Err()
	default:
		j.state = JobFailed
		j.err = err
	}
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel() // release the context's resources
	close(j.done)
}

// Wait blocks until the job finishes (or ctx expires) and returns the
// marshalled result.
func (j *Job) Wait(ctx context.Context) ([]byte, error) {
	r, err := j.wait(ctx)
	return r.body, err
}

// wait is Wait returning the whole reply, frame boundaries included.
func (j *Job) wait(ctx context.Context) (reply, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return reply{}, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return reply{}, j.err
	}
	return j.result, nil
}

// Status is the pollable JSON view of a job (GET /v1/jobs/{id}).
type Status struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	RequestKey string          `json:"request_digest"`
	State      JobState        `json:"state"`
	Cached     bool            `json:"cached"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
	ElapsedSec float64         `json:"elapsed_sec"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Status snapshots the job. withResult embeds the result payload for
// terminal Done jobs.
func (j *Job) Status(withResult bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:         j.id,
		Kind:       j.kind,
		RequestKey: j.key,
		State:      j.state,
		Cached:     j.cached,
		CreatedAt:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
		s.ElapsedSec = j.finished.Sub(j.created).Seconds()
	} else {
		s.ElapsedSec = time.Since(j.created).Seconds()
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if withResult && j.state == JobDone {
		s.Result = j.result.body
	}
	return s
}
