package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/service/client"
)

// procStart approximates process start: package initialization of main
// runs after every imported package's.
var procStart = time.Now()

// config is one workload run.
type config struct {
	workload string
	seed     int64
	// seconds, when positive, bounds the measured window by time; zero
	// runs the workload's fixed operation count scaled by scale.
	seconds float64
	scale   float64
	trace   bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	outDir string
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// callResult is the outcome of one measured call.
type callResult struct {
	done      bool
	lat, ttfp time.Duration
	digest    [32]byte
	body      []byte // kept for the checks after the window
	err       error
	traced    bool
}

// primedTemplate is what a primed spec's fresh response established.
type primedTemplate struct {
	digest [32]byte
	body   []byte
	points map[string][]byte // point digest → point bytes
}

// bench is one workload run in progress.
type bench struct {
	cfg     config
	w       workload
	in      *inputs
	st      *stack
	rec     *recorder
	primed  map[int]*primedTemplate
	results []callResult
	offsets []int // first call index of each op

	mu    sync.Mutex
	fails []string
}

// fail records a failed correctness check.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.fails) < 20 {
		b.fails = append(b.fails, fmt.Sprintf(format, args...))
	}
}

// opCount is the number of operations to generate: the fixed count
// scaled down for tests, or, for a time-bounded window, more than it can
// consume.
func opCount(w workload, cfg config) int {
	if cfg.seconds > 0 {
		return w.ops * max(1, int(math.Ceil(2*cfg.seconds/15)))
	}
	return max(1, int(float64(w.ops)*cfg.scale+0.5))
}

// runWorkload runs one workload and prints its metric lines, then the
// result object as the last line. It returns the result; a run whose
// checks failed has Correct false.
func runWorkload(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b := &bench{cfg: cfg, w: w}
	setup, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer b.st.close()

	var lw windowInfo
	var removes []func()
	if b.rec != nil {
		lw.before = b.layerState()
		for _, nd := range b.st.nodes {
			removes = append(removes, b.rec.observe(nd.eng))
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	nOps, wall := b.window(ctx)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	rss := peakRSSMB()
	for _, rm := range removes {
		rm()
	}
	if b.rec != nil {
		lw.after = b.layerState()
	}
	nCalls := b.in.calls(nOps)
	res := b.results[:nCalls]

	// End-to-end numbers over every call of the window (in a traced run,
	// half of them ran with tracing on).
	var lats, ttfps []float64
	points, failed := 0, 0
	var tracedLat, plainLat []float64
	for op := 0; op < nOps; op++ {
		for k, c := range b.in.Ops[op] {
			r := &res[b.offsets[op]+k]
			if r.err != nil {
				failed++
				continue
			}
			lats = append(lats, ms(r.lat))
			if c.Points > 0 {
				ttfps = append(ttfps, ms(r.ttfp))
				points += c.Points
			}
			if r.traced {
				tracedLat = append(tracedLat, ms(r.lat))
			} else {
				plainLat = append(plainLat, ms(r.lat))
			}
		}
	}
	sLat, sTTFP := sorted(lats), sorted(ttfps)
	e2e := map[string]float64{
		"setup_s":          setup,
		"points_per_s":     float64(points) / wall.Seconds(),
		"req_per_s":        float64(nCalls) / wall.Seconds(),
		"lat_p50_ms":       pct(sLat, 50),
		"lat_p90_ms":       pct(sLat, 90),
		"ttfp_p50_ms":      pct(sTTFP, 50),
		"rss_peak_mb":      rss,
		"alloc_kb_per_req": float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(max(nCalls, 1)),
		"cpu_ms_per_req":   ms(cpu) / float64(max(nCalls, 1)),
	}

	b.check(ctx, nOps)

	res0 := &result{Attempted: nCalls, Failed: failed, Metrics: map[string]metric{}}
	name := cfg.workload
	fmt.Fprintf(out, "# %s seed=%d ops=%d calls=%d window_s=%.3f failed=%d fail_ratio=%.4g\n",
		name, cfg.seed, nOps, nCalls, wall.Seconds(), failed, float64(failed)/float64(max(nCalls, 1)))
	fmt.Fprintf(out, "# %s lat n=%d beyond_p90=%d; ttfp n=%d; highest tail with >=%d beyond: p%d\n",
		name, len(sLat), beyond(len(sLat), 90), len(sTTFP), minTail, tailPct(len(sLat)))
	if len(sLat) > 0 && beyond(len(sLat), 90) < minTail {
		fmt.Fprintf(out, "# %s warning: lat_p90_ms has fewer than %d samples beyond it\n", name, minTail)
	}
	defs, values := e2eMetrics, e2e
	if b.rec != nil {
		lw.wall, lw.calls, lw.points = wall, nCalls, points
		if len(tracedLat) > 0 && len(plainLat) > 0 {
			lw.overhead = mean(tracedLat)/mean(plainLat) - 1
		}
		layers, err := b.layerMetrics(ctx, lw)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.json", name, cfg.seed))
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := b.rec.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "# %s spans=%d written to %s\n", name, len(b.rec.spans), path)
		for _, m := range e2eMetrics {
			fmt.Fprintf(out, "# %s %s %.6g %s (traced run)\n", name, m.Name, e2e[m.Name], m.Unit)
		}
		defs, values = layerMetrics, layers
	}
	for _, m := range defs {
		res0.Metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
		fmt.Fprintf(out, "%s %s %.6g %s\n", name, m.Name, values[m.Name], m.Unit)
	}
	fmt.Fprintf(out, "%s output_sha256 %s calls=%d\n", name, b.outputSHA(nCalls), nCalls)
	res0.Correct = len(b.fails) == 0
	for _, f := range b.fails {
		fmt.Fprintf(out, "# %s CHECK FAILED: %s\n", name, f)
	}
	if res0.Correct {
		fmt.Fprintf(out, "# %s checks passed\n", name)
	}
	line, err := json.Marshal(res0)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res0, nil
}

// setup builds the inputs and the stack and primes it, cfg.setups times;
// only the last stack is kept. It returns the median set-up time, the
// first set-up timed from process start.
func (b *bench) setup(ctx context.Context) (float64, error) {
	var times []float64
	for k := 0; k < max(b.cfg.setups, 1); k++ {
		if b.st != nil {
			b.st.close()
			runtime.GC() // free the old stack before the next one grows
		}
		t0 := time.Now()
		if k == 0 {
			t0 = procStart
		}
		in, err := generate(b.w, b.cfg.seed, opCount(b.w, b.cfg))
		if err != nil {
			return 0, err
		}
		b.in = in
		b.rec = nil
		if err := b.warmup(ctx); err != nil {
			return 0, err
		}
		if b.cfg.trace {
			b.rec = newRecorder()
		}
		if b.st, err = newStack(ctx, in.Nodes, b.rec); err != nil {
			return 0, err
		}
		if err := b.prime(ctx); err != nil {
			b.st.close()
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	b.offsets = make([]int, len(b.in.Ops))
	total := 0
	for i, op := range b.in.Ops {
		b.offsets[i] = total
		total += len(op)
	}
	b.results = make([]callResult, total)
	return median(times), nil
}

// warmup runs the warm-up calls on a throwaway standalone stack.
func (b *bench) warmup(ctx context.Context) error {
	if len(b.in.Warmup) == 0 {
		return nil
	}
	st, err := newStack(ctx, 1, nil)
	if err != nil {
		return err
	}
	defer st.close()
	b.st = st
	defer func() { b.st = nil }()
	for i := range b.in.Warmup {
		if r := b.do(ctx, &b.in.Warmup[i], -1, false); r.err != nil {
			return fmt.Errorf("warm-up call %d: %w", i, r.err)
		}
	}
	return nil
}

// prime warms every node's connection and runs the set-up calls,
// recording the fresh response of every primed template.
func (b *bench) prime(ctx context.Context) error {
	for _, nd := range b.st.nodes {
		if _, err := nd.cl.Health(ctx); err != nil {
			return fmt.Errorf("health: %w", err)
		}
	}
	b.primed = map[int]*primedTemplate{}
	t := 0
	for i := range b.in.Prime {
		c := &b.in.Prime[i]
		r := b.do(ctx, c, -1, false)
		if r.err != nil {
			return fmt.Errorf("prime call %d (%s): %w", i, c.Kind, r.err)
		}
		if c.Kind == kindUpload {
			continue
		}
		pt := &primedTemplate{digest: r.digest, body: r.body}
		if c.Kind == kindScenario || c.Kind == kindStream {
			pts, err := pointBytes(r.body)
			if err != nil {
				return fmt.Errorf("prime call %d: %w", i, err)
			}
			pt.points = map[string][]byte{}
			for d, p := range pts {
				pt.points[d] = p
			}
		}
		b.primed[t] = pt
		t++
	}
	return nil
}

// window runs the measured closed loop: every client takes the next
// operation, runs its calls in order and waits for each reply, until the
// operations run out or the time bound passes. It returns how many
// operations ran (always a prefix) and the wall time.
func (b *bench) window(ctx context.Context) (int, time.Duration) {
	var next atomic.Int64
	t0 := time.Now()
	var deadline time.Time
	if b.cfg.seconds > 0 {
		deadline = t0.Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	}
	if b.rec != nil {
		b.rec.start()
	}
	var wg sync.WaitGroup
	for c := 0; c < b.in.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				op := int(next.Add(1) - 1)
				if op >= len(b.in.Ops) {
					return
				}
				// A traced run traces a pseudo-random half of the operations,
				// so traced and untraced calls see the same mix and the same
				// warm state whatever period the workload's structure has.
				traced := b.rec != nil && mix(uint64(op))&1 == 1
				for k := range b.in.Ops[op] {
					idx := b.offsets[op] + k
					b.results[idx] = b.do(ctx, &b.in.Ops[op][k], idx, traced)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	if b.rec != nil {
		b.rec.stop()
	}
	return min(int(next.Load()), len(b.in.Ops)), wall
}

// mix is the splitmix64 finalizer: a fixed, well-spread hash of i.
func mix(i uint64) uint64 {
	i = (i ^ i>>30) * 0xbf58476d1ce4e5b9
	i = (i ^ i>>27) * 0x94d049bb133111eb
	return i ^ i>>31
}

// do sends one call and checks its response against what it must repeat.
// idx is the call's index in the window, -1 for set-up calls.
func (b *bench) do(ctx context.Context, c *call, idx int, traced bool) callResult {
	cl := b.st.nodes[c.Node].cl
	var spanID int64
	if traced {
		ctx, spanID = b.rec.clientCtx(ctx, idx)
	}
	var (
		body []byte
		err  error
		ttfp time.Duration
		v    any // a decoded response re-encoded for the digest
		pts  []core.ScenarioPoint
		hdr  core.ScenarioHeader
	)
	start := time.Now()
	switch c.Kind {
	case kindScenario:
		body, err = cl.ScenarioRaw(ctx, *c.Scenario)
	case kindStream:
		var s *client.ScenarioStream
		if s, err = cl.ScenarioStream(ctx, *c.Scenario); err == nil {
			hdr = s.Header()
			pts = make([]core.ScenarioPoint, 0, c.Points)
			for {
				pt, nerr := s.Next()
				if nerr == io.EOF {
					break
				}
				if nerr != nil {
					err = nerr
					break
				}
				if len(pts) == 0 {
					ttfp = time.Since(start)
				}
				pts = append(pts, pt)
			}
			s.Close()
		}
	case kindAnalyze:
		body, err = cl.AnalyzeRaw(ctx, *c.Analyze)
	case kindWhatIf:
		v, err = cl.WhatIf(ctx, *c.WhatIf)
	case kindSweepBW:
		v, err = cl.SweepBandwidth(ctx, *c.SweepBW)
	case kindSweepMap:
		v, err = cl.SweepMapping(ctx, *c.SweepMap)
	case kindUpload:
		var info service.TraceInfo
		if info, err = cl.UploadTrace(ctx, b.in.Uploads[c.Trace]); err == nil {
			v = info
			if info.Digest != b.in.UploadDigests[c.Trace] {
				b.fail("upload %d: digest %s, want %s", c.Trace, info.Digest, b.in.UploadDigests[c.Trace])
			}
		}
	case kindDelete:
		err = cl.DeleteTrace(ctx, b.in.UploadDigests[c.Trace])
	}
	end := time.Now()
	if traced {
		b.rec.addClientSpan(spanID, idx, c.Kind, start, end, err != nil)
	}
	r := callResult{done: true, lat: end.Sub(start), ttfp: ttfp, err: err, traced: traced}
	if c.Kind != kindStream || c.Points == 0 {
		r.ttfp = r.lat
	}
	if err != nil {
		return r
	}
	switch {
	case c.Kind == kindStream:
		if len(pts) != c.Points {
			b.fail("call %d: stream carried %d points, want %d", idx, len(pts), c.Points)
		}
		body, err = json.Marshal(core.ScenarioResult{ScenarioHeader: hdr, Points: pts})
	case v != nil:
		body, err = json.Marshal(v)
	}
	if err != nil {
		r.err = err
		return r
	}
	r.digest = sha256.Sum256(body)
	if c.Keep || idx < 0 {
		r.body = body
	}
	if c.SameTemplate >= 0 && r.digest != b.primed[c.SameTemplate].digest {
		b.fail("call %d: rerun of primed spec %d differs from its fresh response", idx, c.SameTemplate)
	}
	if c.SameCall >= 0 && r.digest != b.results[c.SameCall].digest {
		b.fail("call %d: rerun of call %d on node %d differs from the first response", idx, c.SameCall, c.Node)
	}
	if c.Superset >= 0 {
		b.checkSuperset(idx, c, body)
	}
	return r
}

// checkSuperset: a superset grid must serve every point of its primed
// template byte-identically (resumed from the point cache) and carry its
// new points besides.
func (b *bench) checkSuperset(idx int, c *call, body []byte) {
	pts, err := pointBytes(body)
	if err != nil {
		b.fail("call %d: %v", idx, err)
		return
	}
	if len(pts) != c.Points {
		b.fail("call %d: superset carried %d distinct points, want %d", idx, len(pts), c.Points)
	}
	for d, want := range b.primed[c.Superset].points {
		if got, ok := pts[d]; !ok || string(got) != string(want) {
			b.fail("call %d: superset point %s differs from primed spec %d", idx, d, c.Superset)
			return
		}
	}
}

// pointBytes splits a scenario result into its points' bytes, keyed by
// point digest.
func pointBytes(body []byte) (map[string][]byte, error) {
	var res struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decode scenario result: %w", err)
	}
	out := make(map[string][]byte, len(res.Points))
	for _, raw := range res.Points {
		var pt struct {
			Digest string `json:"point_digest"`
		}
		if err := json.Unmarshal(raw, &pt); err != nil {
			return nil, fmt.Errorf("decode scenario point: %w", err)
		}
		out[pt.Digest] = raw
	}
	return out, nil
}

// outputSHA is SHA-256 over (call index, SHA-256 of the response bytes)
// for every call of the window, in index order.
func (b *bench) outputSHA(nCalls int) string {
	h := sha256.New()
	var idx [8]byte
	for i := 0; i < nCalls; i++ {
		binary.BigEndian.PutUint64(idx[:], uint64(i))
		h.Write(idx[:])
		h.Write(b.results[i].digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// keptCalls returns the indices of completed, successful calls whose
// bodies were kept, filtered by kind (any kind when kinds is empty).
func (b *bench) keptCalls(nOps int, kinds ...callKind) []int {
	var out []int
	for op := 0; op < nOps; op++ {
		for k := range b.in.Ops[op] {
			c := &b.in.Ops[op][k]
			idx := b.offsets[op] + k
			if !c.Keep || b.results[idx].err != nil || b.results[idx].body == nil {
				continue
			}
			if len(kinds) == 0 || slices.Contains(kinds, c.Kind) {
				out = append(out, idx)
			}
		}
	}
	sort.Ints(out)
	return out
}

// callAt returns the call with window index idx.
func (b *bench) callAt(idx int) *call {
	op := sort.Search(len(b.offsets), func(i int) bool { return b.offsets[i] > idx }) - 1
	return &b.in.Ops[op][idx-b.offsets[op]]
}
