package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// The traced run wraps every public layer boundary the benchmark builds —
// the load generator's HTTP transport, each node's HTTP handler, each
// node's cluster transport, each engine's job observer — and records
// spans in memory. Nothing is added inside the program: spans of the
// stages within one HTTP request come from the program's own stage
// histograms, read at the span boundaries.

// reqHeader carries the benchmark's request id from the client span to
// the server span of the same request.
const reqHeader = "X-Bench-Req"

type ctxKey int

const (
	reqKey  ctxKey = iota // reqInfo of a traced client call
	spanKey               // id of the server span handling the request
)

type reqInfo struct {
	req    int64 // request id: call index + 1
	parent int64 // the client span
}

// span is one timed interval at a layer boundary. Node is the simd node
// the interval ran on, -1 for the load generator.
type span struct {
	ID, Parent int64
	Name       string
	Node       int
	Req        int64
	Start, End time.Duration // since the window opened

	Op        string // cluster RPC op
	Target    int    // cluster RPC destination node
	ReqBytes  int64
	RespBytes int64
	TTFB      time.Duration
	Link      string // how Parent was found: ctx, header, time, or none
	Failed    bool
	// stage0 and stage1 are the program's summed scenario-stage seconds
	// (in ns) when the span opened and closed.
	stage0, stage1 int64
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// recorder holds the spans of one traced run. Span times count from the
// recorder's creation; w0 is when the window opened.
type recorder struct {
	t0     time.Time
	w0     time.Duration
	on     atomic.Bool
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
	nodeOf map[string]int // cluster peer address → node index

	rpcBytes atomic.Int64
	stages   []*telemetry.Histogram

	jobs, failed, busy, wait atomic.Int64
}

func newRecorder() *recorder {
	vec := telemetry.Default().HistogramVec("scenario_stage_seconds", "", 1e-9, "stage")
	r := &recorder{t0: time.Now(), nodeOf: map[string]int{}}
	for _, st := range []string{"compile", "replay", "copyout", "emit"} {
		r.stages = append(r.stages, vec.With(st))
	}
	return r
}

// start opens the window.
func (r *recorder) start() {
	r.w0 = r.now()
	r.on.Store(true)
}

func (r *recorder) stop() { r.on.Store(false) }

func (r *recorder) active() bool { return r != nil && r.on.Load() }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// stageNanos sums the program's scenario_stage_seconds histograms.
func (r *recorder) stageNanos() int64 {
	var sum uint64
	var d telemetry.HistogramData
	for _, h := range r.stages {
		h.Load(&d)
		sum += d.Sum
	}
	return int64(sum)
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) addNode(addr string, i int) {
	if r != nil {
		r.nodeOf[addr] = i
	}
}

// clientCtx allocates the load generator's span id for call idx and
// returns the context that carries it to the HTTP transport.
func (r *recorder) clientCtx(ctx context.Context, idx int) (context.Context, int64) {
	id := r.ids.Add(1)
	return context.WithValue(ctx, reqKey, reqInfo{req: int64(idx) + 1, parent: id}), id
}

func (r *recorder) addClientSpan(id int64, idx int, kind callKind, start, end time.Time, failed bool) {
	r.add(span{
		ID: id, Name: "client." + string(kind), Node: -1, Req: int64(idx) + 1,
		Start: start.Sub(r.t0), End: end.Sub(r.t0), Failed: failed,
	})
}

// ---------------------------------------------------------------------------
// Client side: the load generator's HTTP transport.

type tracedRT struct {
	base http.RoundTripper
	r    *recorder
}

func (r *recorder) roundTripper(base http.RoundTripper) http.RoundTripper {
	return &tracedRT{base: base, r: r}
}

func (t *tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	info, ok := req.Context().Value(reqKey).(reqInfo)
	if !ok {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatInt(info.req, 10))
	sp := &span{
		ID: t.r.ids.Add(1), Parent: info.parent, Name: "http.client", Node: -1,
		Req: info.req, Start: t.r.now(), ReqBytes: max(req.ContentLength, 0),
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End, sp.Failed = t.r.now(), true
		t.r.add(*sp)
		return nil, err
	}
	sp.TTFB = t.r.now() - sp.Start
	resp.Body = &tracedBody{rc: resp.Body, sp: sp, r: t.r}
	return resp, nil
}

// tracedBody closes the client span when the body is drained or closed,
// whichever comes first.
type tracedBody struct {
	rc   io.ReadCloser
	sp   *span
	r    *recorder
	done bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.sp.RespBytes += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish()
	return b.rc.Close()
}

func (b *tracedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.sp.End = b.r.now()
	b.r.add(*b.sp)
}

// countingRT counts the bytes cluster RPCs put on the wire.
type countingRT struct {
	base http.RoundTripper
	n    *atomic.Int64
}

func (r *recorder) countingRoundTripper(base http.RoundTripper) http.RoundTripper {
	return &countingRT{base: base, n: &r.rpcBytes}
}

func (c *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(max(req.ContentLength, 0))
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, n: c.n}
	return resp, nil
}

type countingBody struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

// ---------------------------------------------------------------------------
// Server side: each node's HTTP handler.

// handler wraps a node's API. Requests from traced client calls, and
// every peer RPC while the window is open, get a span; the span id rides
// the request context to wherever the service passes it down.
func (r *recorder) handler(h http.Handler, node int) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		hdr := req.Header.Get(reqHeader)
		rpc := req.URL.Path == cluster.RPCPath
		if hdr == "" && !(rpc && r.active()) {
			h.ServeHTTP(w, req)
			return
		}
		sp := span{ID: r.ids.Add(1), Name: "http.server", Node: node, Start: r.now(), stage0: r.stageNanos()}
		if rpc {
			sp.Name = "cluster.serve"
		}
		if hdr != "" {
			// The header comes from the benchmark's own transport; a
			// malformed one would only leave the span unlinked.
			sp.Req, _ = strconv.ParseInt(hdr, 10, 64)
		}
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanKey, sp.ID)))
		sp.End, sp.stage1 = r.now(), r.stageNanos()
		r.add(sp)
	})
}

// ---------------------------------------------------------------------------
// Cluster transport and engine observers.

type tracedTransport struct {
	base cluster.Transport
	r    *recorder
	node int
}

func (r *recorder) transport(base cluster.Transport, node int) cluster.Transport {
	if r == nil {
		return base
	}
	return &tracedTransport{base: base, r: r, node: node}
}

func (t *tracedTransport) Call(ctx context.Context, addr string, req *cluster.Request) (*cluster.Response, error) {
	if !t.r.active() {
		return t.base.Call(ctx, addr, req)
	}
	sp := span{
		ID: t.r.ids.Add(1), Name: "cluster.rpc", Node: t.node, Op: string(req.Op),
		Target: t.r.nodeOf[addr], Start: t.r.now(), stage0: t.r.stageNanos(),
	}
	if p, ok := ctx.Value(spanKey).(int64); ok {
		sp.Parent, sp.Link = p, "ctx"
	}
	resp, err := t.base.Call(ctx, addr, req)
	sp.End, sp.stage1 = t.r.now(), t.r.stageNanos()
	sp.Failed = err != nil || resp.Err != ""
	t.r.add(sp)
	return resp, err
}

// observe counts every engine job finished while installed.
func (r *recorder) observe(eng *engine.Engine) (remove func()) {
	return eng.AddObserver(func(ev engine.JobEvent) {
		if !ev.Done {
			return
		}
		r.jobs.Add(1)
		r.busy.Add(int64(ev.Elapsed))
		r.wait.Add(int64(ev.Wait))
		if ev.Err != nil {
			r.failed.Add(1)
		}
	})
}

// ---------------------------------------------------------------------------
// Linking and analysis

// link resolves every span's parent. Server spans of client calls hang
// under the HTTP client span of the same request id. Cluster RPCs whose
// context carried no server span, and served RPCs, are linked by time:
// to the innermost span on the sending node (the server span running
// there, or for a served RPC the outbound RPC aimed at this node) that
// was open when they started.
func (r *recorder) link() {
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	httpOf := map[int64]int64{}
	servers := map[int][]int{} // node → server span indices, by start
	rpcsTo := map[int][]int{}  // target node → outbound RPC span indices
	for i := range r.spans {
		s := &r.spans[i]
		switch s.Name {
		case "http.client":
			httpOf[s.Req] = s.ID
		case "http.server", "cluster.serve":
			servers[s.Node] = append(servers[s.Node], i)
		case "cluster.rpc":
			rpcsTo[s.Target] = append(rpcsTo[s.Target], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		switch {
		case s.Name == "http.server":
			if p, ok := httpOf[s.Req]; ok {
				s.Parent, s.Link = p, "header"
			}
		case s.Name == "cluster.rpc" && s.Parent == 0:
			s.Parent, s.Link = r.enclosing(servers[s.Node], s.Start)
		case s.Name == "cluster.serve":
			s.Parent, s.Link = r.enclosing(rpcsTo[s.Node], s.Start)
		}
	}
}

// enclosing returns the latest-starting span among idx (sorted by start)
// that was open at t.
func (r *recorder) enclosing(idx []int, t time.Duration) (int64, string) {
	k := sort.Search(len(idx), func(i int) bool { return r.spans[idx[i]].Start > t })
	for j := k - 1; j >= 0 && j >= k-64; j-- {
		if s := &r.spans[idx[j]]; s.End >= t {
			return s.ID, "time"
		}
	}
	return 0, "none"
}

// layerStats are the per-layer numbers the spans yield.
type layerStats struct {
	clientMs, serverMs, overheadMs, ttfbMs []float64
	reqKB, respKB                          []float64
	rpcMs                                  map[string][]float64
	rpcs, rpcFailed, execRPCs              int
	accounted                              float64
}

// analyze derives the span-based per-layer numbers. accounted is the
// share of client-span time explained by the layers the benchmark can
// see: the HTTP exchange around the server span, outbound RPC spans, and
// the program's scenario stages that ran on the serving node itself. A
// server span's remaining self time has no named stage.
func (r *recorder) analyze() layerStats {
	ls := layerStats{rpcMs: map[string][]float64{}}
	children := map[int64][]*span{}
	server := map[int64]*span{} // request id → top-level server span
	httpSpan := map[int64]*span{}
	for i := range r.spans {
		s := &r.spans[i]
		switch s.Name {
		case "http.client":
			httpSpan[s.Req] = s
			ls.clientMs = append(ls.clientMs, ms(s.dur()))
			ls.ttfbMs = append(ls.ttfbMs, ms(s.TTFB))
			ls.reqKB = append(ls.reqKB, float64(s.ReqBytes)/1024)
			ls.respKB = append(ls.respKB, float64(s.RespBytes)/1024)
		case "http.server":
			server[s.Req] = s
			ls.serverMs = append(ls.serverMs, ms(s.dur()))
		case "cluster.rpc":
			ls.rpcs++
			ls.rpcMs[s.Op] = append(ls.rpcMs[s.Op], ms(s.dur()))
			if s.Failed {
				ls.rpcFailed++
			}
			if s.Op == string(cluster.OpExec) {
				ls.execRPCs++
			}
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
	}
	for req, s := range server {
		if h, ok := httpSpan[req]; ok {
			ls.overheadMs = append(ls.overheadMs, ms(h.dur()-s.dur()))
		}
	}
	var total, explained time.Duration
	for i := range r.spans {
		c := &r.spans[i]
		if c.Node != -1 || c.Name == "http.client" {
			continue
		}
		total += c.dur()
		s, ok := server[c.Req]
		if !ok {
			continue
		}
		rpcUnion, rpcStage := union(children[s.ID], s.Start, s.End)
		local := time.Duration(max(s.stage1-s.stage0-rpcStage, 0))
		inside := min(s.dur(), rpcUnion+local)
		explained += min(max(c.dur()-s.dur(), 0)+inside, c.dur())
	}
	if total > 0 {
		ls.accounted = float64(explained) / float64(total)
	}
	return ls
}

// union returns the time the spans cover within [lo, hi] and the stage
// time that elapsed while any of them was open.
func union(spans []*span, lo, hi time.Duration) (time.Duration, int64) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var covered time.Duration
	var stage int64
	end := lo
	for _, s := range spans {
		a, b := max(s.Start, end), min(s.End, hi)
		if b > a {
			covered += b - a
		}
		if s.End > end {
			end = s.End
		}
		stage += s.stage1 - s.stage0
	}
	return covered, stage
}

// write stores the spans as a JSON array of {id, parent, name, start_us,
// end_us, attrs}, timed from the opening of the window.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	bw.WriteString("[\n")
	for i := range r.spans {
		s := &r.spans[i]
		attrs := map[string]any{"node": s.Node}
		if s.Req != 0 {
			attrs["req"] = s.Req
		}
		if s.Op != "" {
			attrs["op"], attrs["target"] = s.Op, s.Target
		}
		if s.ReqBytes != 0 || s.RespBytes != 0 {
			attrs["req_bytes"], attrs["resp_bytes"] = s.ReqBytes, s.RespBytes
		}
		if s.TTFB != 0 {
			attrs["ttfb_us"] = s.TTFB.Microseconds()
		}
		if s.Link != "" {
			attrs["link"] = s.Link
		}
		if s.stage1 > s.stage0 {
			attrs["stage_us"] = (s.stage1 - s.stage0) / 1000
		}
		if s.Failed {
			attrs["failed"] = true
		}
		if i > 0 {
			bw.WriteString(",")
		}
		if err := enc.Encode(map[string]any{
			"id": s.ID, "parent": s.Parent, "name": s.Name,
			"start_us": (s.Start - r.w0).Microseconds(), "end_us": (s.End - r.w0).Microseconds(), "attrs": attrs,
		}); err != nil {
			f.Close()
			return err
		}
	}
	bw.WriteString("]\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
