package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/lru"
	"repro/internal/network"
	"repro/internal/trace"
)

// Memory-tier capacity bounds: a long-lived daemon must not grow without
// limit under adversarial or merely enthusiastic traffic. Traces can be
// megabytes, platforms are a few hundred bytes; the bounds differ
// accordingly. Storing content already present never counts against them.
const (
	maxStoredTraces    = 1024
	maxStoredPlatforms = 65536
)

// ErrStoreFull reports a memory tier at capacity; the HTTP layer maps it
// to 507 Insufficient Storage.
var ErrStoreFull = errors.New("service: artifact store full")

// Store is the content-addressed artifact store of the service: traces and
// platforms are stored and retrieved by digest ("sha256:..."). Both
// memory tiers are LRU caches. The trace tier holds engine.StoredTrace
// values, each validated and digested once as it enters the tier, and
// each owning its compiled program, so a trace that leaves the tier
// takes its program along once no running job holds it. The trace tier
// is authoritative for memory-only stores (Dir == ""), where uploads at
// capacity are refused; with a disk tier the least recently used trace
// is evicted from memory (the disk copy still serves it) instead.
// Platforms are registered implicitly by every request that resolves
// one, so their tier always evicts: a digest that aged out reads as
// unknown unless the disk tier still holds it. Because names are content
// addresses, disk entries are verified against their digest on load — a
// corrupted file is never served: it is quarantined (renamed to
// *.corrupt, counted on store_corrupt_artifacts_total) and the digest
// reads as unknown, so a later put of the true content can re-store it.
type Store struct {
	dir string

	// mu orders the trace tier's compound updates (a put's capacity
	// check, a disk promotion, a delete) against each other.
	mu sync.Mutex
	// traces and platforms are the memory tiers, bounded by
	// maxStoredTraces and maxStoredPlatforms (tests lower them to exercise
	// eviction).
	traces    *lru.Cache[*engine.StoredTrace]
	platforms *lru.Cache[network.Platform]
}

// NewStore returns a store with a memory tier and, when dir is non-empty,
// a disk tier rooted there (created if missing).
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: store dir: %w", err)
		}
	}
	return &Store{
		dir:       dir,
		traces:    lru.New[*engine.StoredTrace](maxStoredTraces),
		platforms: lru.New[network.Platform](maxStoredPlatforms),
	}, nil
}

// tracePath and platformPath name the disk-tier files. The "sha256:"
// prefix becomes "sha256-" so names stay portable.
func (s *Store) tracePath(digest string) string {
	return filepath.Join(s.dir, strings.ReplaceAll(digest, ":", "-")+".dimbin")
}

func (s *Store) platformPath(digest string) string {
	return filepath.Join(s.dir, strings.ReplaceAll(digest, ":", "-")+".platform.json")
}

// PutTrace validates and digests a trace (engine.NewStoredTrace), stores
// it, and returns its digest. Storing the same content twice is an
// idempotent no-op. The disk tier is written before the memory tier
// commits, so a failed disk write fails the whole put and a retry really
// retries — success always means "persisted everywhere the store is
// configured to persist".
func (s *Store) PutTrace(t *trace.Trace) (string, error) {
	st, err := engine.NewStoredTrace(t)
	if err != nil {
		return "", fmt.Errorf("service: store trace: %w", err)
	}
	digest := st.Digest()
	if s.traces.Contains(digest) {
		return digest, nil
	}
	if s.dir != "" {
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, t); err != nil {
			return "", err
		}
		if err := atomicWrite(s.tracePath(digest), buf.Bytes()); err != nil {
			return "", fmt.Errorf("service: store trace to disk: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.traces.Contains(digest):
	case s.dir == "" && s.traces.Full():
		// With no disk tier the memory tier is authoritative: at capacity
		// it refuses the put instead of evicting data.
		return "", fmt.Errorf("%w: %d traces", ErrStoreFull, s.traces.Len())
	default:
		s.traces.Put(digest, st)
	}
	return digest, nil
}

// GetTrace resolves a digest to its stored trace, trying memory then
// disk. A disk hit is validated, re-verified against the digest and
// promoted to memory (evicting the least recently used entry when at
// capacity).
func (s *Store) GetTrace(digest string) (*engine.StoredTrace, error) {
	if !trace.ValidDigest(digest) {
		return nil, fmt.Errorf("service: malformed trace digest %q", digest)
	}
	if st, ok := s.traces.Get(digest); ok {
		return st, nil
	}
	if s.dir == "" {
		return nil, fmt.Errorf("service: unknown trace %s", digest)
	}
	f, err := os.Open(s.tracePath(digest))
	if err != nil {
		return nil, fmt.Errorf("service: unknown trace %s", digest)
	}
	defer f.Close()
	t, err := trace.ReadBinary(f)
	var st *engine.StoredTrace
	if err == nil {
		st, err = engine.NewStoredTrace(t)
	}
	if err != nil {
		s.quarantine(s.tracePath(digest))
		return nil, fmt.Errorf("service: unknown trace %s (disk copy undecodable, quarantined: %v)", digest, err)
	}
	if got := st.Digest(); got != digest {
		s.quarantine(s.tracePath(digest))
		return nil, fmt.Errorf("service: unknown trace %s (disk copy digests %s, quarantined)", digest, got)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check the disk file under the lock before promoting: a
	// concurrent DeleteTrace unlinks the file before it clears the
	// memory tier, so either the file is still present here (and a
	// delete that follows will also clear this entry), or it is gone and
	// skipping the promotion keeps a deleted trace from resurrecting
	// through the open file descriptor we just read it from.
	if _, statErr := os.Stat(s.tracePath(digest)); statErr == nil {
		s.traces.Put(digest, st)
	}
	return st, nil
}

// DeleteTrace removes a trace from the store — disk tier first, then the
// memory tier — and reports whether the digest was present in either
// tier. The disk copy is unlinked before the memory entry is cleared,
// and GetTrace's promotion re-checks the file under the lock, so a
// concurrent read either linearizes before the delete or misses — it
// cannot resurrect the trace into a memory tier whose disk backing is
// gone.
func (s *Store) DeleteTrace(digest string) (bool, error) {
	if !trace.ValidDigest(digest) {
		return false, fmt.Errorf("service: malformed trace digest %q", digest)
	}
	onDisk := false
	if s.dir != "" {
		switch err := os.Remove(s.tracePath(digest)); {
		case err == nil:
			onDisk = true
		case !os.IsNotExist(err):
			return false, fmt.Errorf("service: delete trace %s: %w", digest, err)
		}
	}
	s.mu.Lock()
	inMemory := s.traces.Delete(digest)
	s.mu.Unlock()
	return inMemory || onDisk, nil
}

// PutPlatform stores a validated platform and returns its digest, with
// the same disk-before-memory commit order as PutTrace. At capacity the
// least recently used platform leaves the memory tier.
func (s *Store) PutPlatform(p network.Platform) (string, error) {
	digest, err := p.Digest() // validates
	if err != nil {
		return "", err
	}
	if _, ok := s.platforms.Get(digest); ok { // refreshes its recency
		return digest, nil
	}
	if s.dir != "" {
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			return "", err
		}
		if err := atomicWrite(s.platformPath(digest), buf.Bytes()); err != nil {
			return "", fmt.Errorf("service: store platform to disk: %w", err)
		}
	}
	s.platforms.Put(digest, p)
	return digest, nil
}

// touchPlatform refreshes a platform's recency in the memory tier, as
// registering it again would, and reports whether it is there.
func (s *Store) touchPlatform(digest string) bool {
	_, ok := s.platforms.Get(digest)
	return ok
}

// GetPlatform resolves a digest to its platform, trying memory then disk.
// A disk hit is re-verified against the digest and promoted to memory.
func (s *Store) GetPlatform(digest string) (network.Platform, error) {
	// Same digest grammar as traces; rejecting malformed input here also
	// keeps attacker-controlled strings out of the disk tier's paths.
	if !trace.ValidDigest(digest) {
		return network.Platform{}, fmt.Errorf("service: malformed platform digest %q", digest)
	}
	if p, ok := s.platforms.Get(digest); ok {
		return p, nil
	}
	if s.dir == "" {
		return network.Platform{}, fmt.Errorf("service: unknown platform %s", digest)
	}
	f, err := os.Open(s.platformPath(digest))
	if err != nil {
		return network.Platform{}, fmt.Errorf("service: unknown platform %s", digest)
	}
	defer f.Close()
	p, err := network.ReadAnyPlatform(f)
	if err != nil {
		s.quarantine(s.platformPath(digest))
		return network.Platform{}, fmt.Errorf("service: unknown platform %s (disk copy undecodable, quarantined: %v)", digest, err)
	}
	got, err := p.Digest()
	if err != nil {
		return network.Platform{}, err
	}
	if got != digest {
		s.quarantine(s.platformPath(digest))
		return network.Platform{}, fmt.Errorf("service: unknown platform %s (disk copy digests %s, quarantined)", digest, got)
	}
	s.platforms.Put(digest, p)
	return p, nil
}

// SetTraceCapacity lowers the memory-tier trace capacity; tests use it
// to exercise eviction without a thousand puts. Panics on non-positive
// capacities.
func (s *Store) SetTraceCapacity(n int) {
	if n <= 0 {
		panic("service: trace capacity must be positive")
	}
	s.traces.SetCapacity(n)
}

// TraceDigests lists the digests of every stored trace, sorted — the
// union of the memory tier and (when configured) the disk tier, so a
// trace the LRU evicted to disk still appears in GET /v1/traces even
// though it left memory.
func (s *Store) TraceDigests() []string {
	seen := map[string]bool{}
	s.traces.Range(func(d string, _ *engine.StoredTrace) { seen[d] = true })
	if s.dir != "" {
		if names, err := filepath.Glob(filepath.Join(s.dir, "sha256-*.dimbin")); err == nil {
			for _, name := range names {
				base := strings.TrimSuffix(filepath.Base(name), ".dimbin")
				digest := strings.Replace(base, "sha256-", "sha256:", 1)
				if trace.ValidDigest(digest) {
					seen[digest] = true
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Counts reports how many traces and platforms the memory tiers hold.
func (s *Store) Counts() (traces, platforms int) {
	return s.traces.Len(), s.platforms.Len()
}

// quarantine moves a disk artifact that failed verification aside as
// <path>.corrupt: the digest stops resolving (a later put of the true
// content can re-store it) while the bytes stay on disk for forensics.
// Best-effort — if the rename fails the file stays put and the next
// read re-detects the corruption; either way the counter records it.
func (s *Store) quarantine(path string) {
	mStoreCorrupt.Inc()
	os.Rename(path, path+".corrupt")
}

// atomicWrite writes data via a temp file + rename, so a crashed write
// never leaves a half-written artifact under a content address.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
