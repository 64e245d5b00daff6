package service

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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
	if got != tr {
		t.Fatal("memory tier returned a different object")
	}
	// Idempotent second put.
	d2, err := s.PutTrace(testTrace())
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Fatalf("same content, different digests: %s vs %s", d, d2)
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
	tr, err := s2.GetTrace(td)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := trace.Digest(tr); got != td {
		t.Fatalf("disk trace digest %s, want %s", got, td)
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

// TestCompiledTraceSingleFlight: concurrent misses on one stored digest
// in the engine's trace cache compile once and every caller gets the
// same program.
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
	// start-up, so their misses overlap.
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
			prog, err := mgr.Engine().Traces().StoredProgram(d, tr)
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
	if !mgr.CompiledProgramCached(d) {
		t.Fatal("program not cached after the compile")
	}
}

// TestStoreEvictionDropsCompiledPrograms: the stored-trace programs in
// the engine's trace cache must follow the manager's store. With a disk
// tier the memory tier evicts LRU at capacity, and each eviction — as
// well as an explicit delete — must drop the digest's compiled program
// instead of pinning it forever.
func TestStoreEvictionDropsCompiledPrograms(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.SetTraceCapacity(2)
	mgr, err := NewManager(Options{Store: store, Engine: engine.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for i := 0; i < 3; i++ {
		tr := traceWithInstr(int64(1000 + i))
		d, err := store.PutTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			// Compile the first two as a stored-trace scenario would.
			if _, err := mgr.Engine().Traces().StoredProgram(d, tr); err != nil {
				t.Fatal(err)
			}
		}
		digests = append(digests, d)
	}
	// Capacity 2: the third put evicted the least recently used entry
	// (the first trace), and its program must be gone with it.
	if store.HasTrace(digests[0]) {
		t.Fatal("first trace still resident past capacity")
	}
	if mgr.CompiledProgramCached(digests[0]) {
		t.Fatal("evicted trace's compiled program still cached")
	}
	if !mgr.CompiledProgramCached(digests[1]) {
		t.Fatal("resident trace's compiled program dropped")
	}
	// The evicted trace still serves from disk — and promotes back in,
	// evicting another entry whose program follows it out.
	if _, err := store.GetTrace(digests[0]); err != nil {
		t.Fatalf("disk tier lost the evicted trace: %v", err)
	}
	if mgr.CompiledProgramCached(digests[1]) {
		t.Fatal("second trace evicted by promotion but program kept")
	}
	// Explicit deletion fires the hook too.
	tr2, err := store.GetTrace(digests[2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Engine().Traces().StoredProgram(digests[2], tr2); err != nil {
		t.Fatal(err)
	}
	found, err := store.DeleteTrace(digests[2])
	if err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if mgr.CompiledProgramCached(digests[2]) {
		t.Fatal("deleted trace's compiled program still cached")
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
// job waits for a slot fires the store's eviction hook before the job
// compiles the program. The job still runs, and when it finishes the
// program it compiled leaves the engine's trace cache instead of staying
// pinned.
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
	rec := httptest.NewRecorder()
	NewHandler(m).ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/traces/"+d, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE answered %d: %s", rec.Code, rec.Body)
	}
	<-m.slots // release; the queued job runs
	if _, err := j.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	if m.CompiledProgramCached(d) {
		t.Fatal("deleted trace's program still cached after its job finished")
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
