package service

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lru"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

func testTrace() *trace.Trace {
	t := trace.New("store-test", "base", 2)
	t.Append(0, trace.Record{Kind: trace.KindCompute, Instr: 1000})
	t.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 1, Bytes: 800, MsgID: 1})
	t.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 1, Bytes: 800, MsgID: 1})
	t.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 500})
	return t
}

func TestStoreMemoryTier(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace()
	d, err := s.PutTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.ValidDigest(d) {
		t.Fatalf("malformed digest %q", d)
	}
	got, err := s.GetTrace(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace() != tr || got.Digest() != d {
		t.Fatal("memory tier returned a different object")
	}
	// Idempotent second put: the first value, and so its program, stays.
	d2, err := s.PutTrace(testTrace())
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Fatalf("same content, different digests: %s vs %s", d, d2)
	}
	if again, err := s.GetTrace(d); err != nil || again != got {
		t.Fatalf("second put replaced the stored value (err %v)", err)
	}
	if traces, _ := s.Counts(); traces != 1 {
		t.Fatalf("store holds %d traces, want 1", traces)
	}
	if _, err := s.GetTrace("sha256:" + strings.Repeat("0", 64)); err == nil {
		t.Fatal("unknown digest resolved")
	}
	if _, err := s.GetTrace("not-a-digest"); err == nil {
		t.Fatal("malformed digest resolved")
	}
}

func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	td, err := s1.PutTrace(testTrace())
	if err != nil {
		t.Fatal(err)
	}
	plat := network.Testbed(4)
	pd, err := s1.PutPlatform(plat)
	if err != nil {
		t.Fatal(err)
	}

	// A second store over the same directory — a daemon restart — serves
	// both artifacts from disk.
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s2.GetTrace(td)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := trace.Digest(st.Trace()); got != td || st.Digest() != td {
		t.Fatalf("disk trace digest %s (stored as %s), want %s", got, st.Digest(), td)
	}
	p, err := s2.GetPlatform(pd)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Digest(); got != pd {
		t.Fatalf("disk platform digest %s, want %s", got, pd)
	}
}

func TestStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	td, err := s1.PutTrace(testTrace())
	if err != nil {
		t.Fatal(err)
	}
	// Swap the file's content for a different (valid) trace: the content
	// no longer matches its address.
	other := testTrace()
	other.Name = "tampered"
	path := filepath.Join(dir, strings.ReplaceAll(td, ":", "-")+".dimbin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, other); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.GetTrace(td); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("corruption not detected: %v", err)
	}
	// The corrupt file was quarantined: moved aside as *.corrupt, so the
	// digest now reads as plainly unknown and a later put of the true
	// content can re-store it.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still at its content address (stat: %v)", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := s2.GetTrace(td); err == nil || strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("post-quarantine read should be a plain not-found: %v", err)
	}
	if d, err := s2.PutTrace(testTrace()); err != nil || d != td {
		t.Fatalf("re-store after quarantine: %s, %v (want %s)", d, err, td)
	}
	if _, err := s2.GetTrace(td); err != nil {
		t.Fatalf("re-stored trace unreadable: %v", err)
	}
}

// TestStoreQuarantinesBitFlip flips one bit of each disk artifact — the
// simplest disk-corruption model — and verifies the store never serves
// the damaged bytes: the read fails, the file is quarantined, and the
// corruption counter moves.
func TestStoreQuarantinesBitFlip(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	td, err := s1.PutTrace(testTrace())
	if err != nil {
		t.Fatal(err)
	}
	pd, err := s1.PutPlatform(network.Testbed(4))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(path string, off int) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2+off] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tracePath := filepath.Join(dir, strings.ReplaceAll(td, ":", "-")+".dimbin")
	platPath := filepath.Join(dir, strings.ReplaceAll(pd, ":", "-")+".platform.json")
	flip(tracePath, 0)
	flip(platPath, 0)

	before := mStoreCorrupt.Value()
	s2, err := NewStore(dir) // fresh store: nothing in the memory tier
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.GetTrace(td); err == nil {
		t.Fatal("bit-flipped trace served")
	}
	if _, err := s2.GetPlatform(pd); err == nil {
		t.Fatal("bit-flipped platform served")
	}
	for _, p := range []string{tracePath, platPath} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s not quarantined (stat: %v)", p, err)
		}
		if _, err := os.Stat(p + ".corrupt"); err != nil {
			t.Fatalf("quarantine file for %s missing: %v", p, err)
		}
	}
	if got := mStoreCorrupt.Value() - before; got != 2 {
		t.Fatalf("store_corrupt_artifacts_total moved by %v, want 2", got)
	}
}

// traceWithInstr builds distinct tiny traces (distinct digests).
func traceWithInstr(instr int64) *trace.Trace {
	t := trace.New("evict-test", "base", 2)
	t.Append(0, trace.Record{Kind: trace.KindCompute, Instr: instr})
	t.Append(0, trace.Record{Kind: trace.KindSend, Peer: 1, Tag: 1, Bytes: 800, MsgID: 1})
	t.Append(1, trace.Record{Kind: trace.KindRecv, Peer: 0, Tag: 1, Bytes: 800, MsgID: 1})
	t.Append(1, trace.Record{Kind: trace.KindCompute, Instr: 500})
	return t
}

// storedProgram compiles a stored trace's program on the store's value,
// as a trace-mode scenario would, and returns a weak pointer to it.
func storedProgram(t *testing.T, s *Store, digest string) weak.Pointer[sim.Program] {
	t.Helper()
	st, err := s.GetTrace(digest)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := st.Program()
	if err != nil {
		t.Fatal(err)
	}
	return weak.Make(prog)
}

// collected reports whether a program is unreachable: two collections
// also empty sync.Pool's victim cache, whose replay arenas keep the
// program they last replayed.
func collected(w weak.Pointer[sim.Program]) bool {
	runtime.GC()
	runtime.GC()
	return w.Value() == nil
}

// TestCompiledTraceSingleFlight: concurrent first Program calls on one
// stored trace compile once and every caller gets the same program, and
// trace-mode scenarios at two bandwidths replay that program: the
// store's value still returns it afterwards.
func TestCompiledTraceSingleFlight(t *testing.T) {
	store, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Options{Store: store, Engine: engine.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	// A ring long enough that compiling it outlasts the goroutines'
	// start-up, so their first calls overlap.
	const ranks, iters = 16, 2000
	tr := trace.New("sf-test", "base", ranks)
	for r := 0; r < ranks; r++ {
		for i := 0; i < iters; i++ {
			tr.Append(r, trace.Record{Kind: trace.KindCompute, Instr: 100})
			tr.Append(r, trace.Record{Kind: trace.KindISend, Peer: (r + 1) % ranks, Tag: 1, Bytes: 64, MsgID: int64(i)})
			tr.Append(r, trace.Record{Kind: trace.KindRecv, Peer: (r + ranks - 1) % ranks, Tag: 1, Bytes: 64, MsgID: int64(i)})
		}
	}
	d, err := store.PutTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	progs := make([]*sim.Program, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			st, err := store.GetTrace(d)
			if err != nil {
				t.Error(err)
				return
			}
			prog, err := st.Program()
			if err != nil {
				t.Error(err)
			}
			progs[i] = prog
		}()
	}
	close(start)
	wg.Wait()
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("caller %d got program %p, caller 0 got %p", i, p, progs[0])
		}
	}
	for _, bw := range []float64{125, 250} {
		j, err := mgr.Submit(ScenarioRequest{Trace: d, Axes: []core.Axis{core.BandwidthAxis(bw)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.GetTrace(d)
	if err != nil {
		t.Fatal(err)
	}
	if prog, err := st.Program(); err != nil || prog != progs[0] {
		t.Fatalf("after two scenarios the stored trace's program is %p (err %v), was %p", prog, err, progs[0])
	}
}

// TestStoreEvictionDropsCompiledPrograms: a stored trace's program lives
// exactly as long as the trace is held. With a disk tier the memory tier
// evicts LRU at capacity; an evicted trace's program — like a deleted
// one's — becomes unreachable, while a resident trace keeps its own.
func TestStoreEvictionDropsCompiledPrograms(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.SetTraceCapacity(2)
	var digests []string
	var progs []weak.Pointer[sim.Program]
	for i := 0; i < 3; i++ {
		d, err := store.PutTrace(traceWithInstr(int64(1000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
		if i < 2 {
			// Compile the first two as a stored-trace scenario would.
			progs = append(progs, storedProgram(t, store, d))
		}
	}
	// Capacity 2: the third put evicted the least recently used entry
	// (the first trace), and its program must be gone with it.
	if store.traces.Contains(digests[0]) {
		t.Fatal("first trace still resident past capacity")
	}
	if !collected(progs[0]) {
		t.Fatal("evicted trace's compiled program still reachable")
	}
	if collected(progs[1]) {
		t.Fatal("resident trace's compiled program dropped")
	}
	// The evicted trace still serves from disk — and promotes back in,
	// evicting another entry whose program follows it out.
	if _, err := store.GetTrace(digests[0]); err != nil {
		t.Fatalf("disk tier lost the evicted trace: %v", err)
	}
	if !collected(progs[1]) {
		t.Fatal("second trace evicted by promotion but program kept")
	}
	// An explicit delete lets the program go too.
	deleted := storedProgram(t, store, digests[2])
	found, err := store.DeleteTrace(digests[2])
	if err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if !collected(deleted) {
		t.Fatal("deleted trace's compiled program still reachable")
	}
	// A memory-only store stays authoritative: at capacity it refuses the
	// put instead of silently dropping data.
	memOnly, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	memOnly.SetTraceCapacity(1)
	if _, err := memOnly.PutTrace(traceWithInstr(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := memOnly.PutTrace(traceWithInstr(2)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("memory-only store over capacity: err %v, want ErrStoreFull", err)
	}
}

// TestStorePlatformTierEvicts: every request that resolves a platform
// registers it, so a full platform tier evicts its least recently used
// entry instead of refusing new platforms, and an evicted digest reads as
// unknown. Trace uploads to a memory-only store are explicit, and at
// capacity they are still refused with 507.
func TestStorePlatformTierEvicts(t *testing.T) {
	m, err := NewManager(Options{Engine: engine.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	m.Store().platforms.SetCapacity(4)
	var first string
	for i := 0; i < 5; i++ {
		plat := network.Testbed(4).WithInterBandwidth(float64(100 + i))
		var buf bytes.Buffer
		if err := plat.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		j, err := m.Submit(ScenarioRequest{App: "cg", Ranks: 4, Platform: &PlatformSpec{Inline: buf.Bytes()}})
		if err != nil {
			t.Fatalf("inline platform %d: %v", i, err)
		}
		if _, err := j.Wait(t.Context()); err != nil {
			t.Fatalf("inline platform %d: %v", i, err)
		}
		if i == 0 {
			if first, err = plat.Digest(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, platforms := m.Store().Counts(); platforms != 4 {
		t.Fatalf("platform tier holds %d entries, want 4", platforms)
	}
	_, err = m.Submit(ScenarioRequest{App: "cg", Ranks: 4, Platform: &PlatformSpec{Digest: first}})
	if err == nil || !strings.Contains(err.Error(), "unknown platform "+first) {
		t.Fatalf("evicted platform digest: err %v, want unknown platform", err)
	}
	// With a disk tier, a platform that left memory is still served.
	disk, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk.platforms.SetCapacity(1)
	d1, err := disk.PutPlatform(network.Testbed(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disk.PutPlatform(network.Testbed(8)); err != nil {
		t.Fatal(err)
	}
	if p, err := disk.GetPlatform(d1); err != nil || p.Processors != 4 {
		t.Fatalf("evicted platform from the disk tier: %d processors, err %v", p.Processors, err)
	}

	m.Store().SetTraceCapacity(1)
	h := NewHandler(m)
	for i, want := range []int{http.StatusCreated, http.StatusInsufficientStorage} {
		var body bytes.Buffer
		if err := trace.WriteBinary(&body, traceWithInstr(int64(7000+i))); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces", &body))
		if rec.Code != want {
			t.Fatalf("trace upload %d answered %d, want %d: %s", i, rec.Code, want, rec.Body)
		}
	}
}

// TestDeletedTraceProgramDroppedAfterQueuedJob: a trace-mode scenario
// resolves its stored trace when it is submitted, so a DELETE while the
// job waits for a slot leaves the job holding the trace and its program.
// The job still runs, and once it finishes nothing holds the program.
func TestDeletedTraceProgramDroppedAfterQueuedJob(t *testing.T) {
	m, err := NewManager(Options{Engine: engine.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Store().PutTrace(traceWithInstr(4242))
	if err != nil {
		t.Fatal(err)
	}
	m.slots <- struct{}{} // hold the only slot
	j, err := m.Submit(ScenarioRequest{Trace: d})
	if err != nil {
		t.Fatal(err)
	}
	prog := storedProgram(t, m.Store(), d)
	rec := httptest.NewRecorder()
	NewHandler(m).ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/traces/"+d, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE answered %d: %s", rec.Code, rec.Body)
	}
	if collected(prog) {
		t.Fatal("deleted trace's program dropped while a queued job holds the trace")
	}
	<-m.slots // release; the queued job runs
	if _, err := j.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	if !collected(prog) {
		t.Fatal("deleted trace's program still reachable after its job finished")
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := lru.New[[]byte](2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted early")
	}
	c.Put("c", []byte("3")) // evicts b (least recently used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("a lost: %q %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || string(v) != "3" {
		t.Fatalf("c lost: %q %v", v, ok)
	}
	hits, misses := c.Counters()
	if hits != 3 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", hits, misses)
	}

	disabled := lru.New[[]byte](-1)
	disabled.Put("x", []byte("1"))
	if _, ok := disabled.Get("x"); ok {
		t.Fatal("disabled cache cached")
	}
}
