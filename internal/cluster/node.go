package cluster

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync/atomic"

	"repro/internal/lru"
)

// Tuning constants.
const (
	// DefaultK is the replication factor: a key's K XOR-closest members
	// hold its value. 8 suits the cluster sizes simd runs at (a handful
	// to tens of nodes).
	DefaultK = 8
	// DefaultMaxBlobs bounds the local blob store (values replicated to
	// this node), evicting least recently used beyond it.
	DefaultMaxBlobs = 16384
)

// Executor runs an opaque exec request on behalf of a peer — the hook
// the service layer registers so OpExec reaches its job manager. The
// returned bytes travel back verbatim as the RPC response value.
type Executor func(ctx context.Context, kind string, payload []byte) ([]byte, error)

// Config assembles a Node.
type Config struct {
	// Name is the operator-chosen node identity (-node-id); the node's
	// 160-bit ID is NodeID(Name).
	Name string
	// Addr is the address peers reach this node at, in whatever scheme
	// Transport speaks ("host:port" for HTTP, any label in-process).
	Addr string
	// Transport carries outbound RPCs. Required.
	Transport Transport
	// Logger receives the node's structured logs; nil discards them.
	Logger *slog.Logger
}

// Node is one cluster member: a member set, a bounded local blob store,
// and the RPC surface. All methods are safe for concurrent use.
type Node struct {
	name  string
	self  Contact
	tr    Transport
	table *RoutingTable
	// blobs is the bounded local value store: replicated blobs, least
	// recently used evicted first, so a node holds the hot slice of its
	// key range and quietly forgets the cold tail (content addressing
	// makes re-derivation safe).
	blobs    *lru.Cache[blob]
	log      *slog.Logger
	draining atomic.Bool
	exec     atomic.Pointer[Executor]
}

// NewNode builds a node from cfg. It holds no sockets itself — the
// transport does — so construction never fails except on a missing
// transport or name.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("cluster: node needs a transport")
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: node needs a name")
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("cluster: node needs an address")
	}
	if len(cfg.Addr) > MaxAddrBytes {
		return nil, fmt.Errorf("cluster: address of %d bytes exceeds %d", len(cfg.Addr), MaxAddrBytes)
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	n := &Node{
		name:  cfg.Name,
		self:  Contact{ID: NodeID(cfg.Name), Addr: cfg.Addr},
		tr:    cfg.Transport,
		blobs: lru.New[blob](DefaultMaxBlobs),
		log:   log,
	}
	n.table = NewRoutingTable(n.self.ID)
	publishNodeMetrics(n)
	return n, nil
}

// Self returns this node's contact.
func (n *Node) Self() Contact { return n.self }

// Name returns the operator-chosen node name.
func (n *Node) Name() string { return n.name }

// Table exposes the member set (status surfaces and tests).
func (n *Node) Table() *RoutingTable { return n.table }

// SetExecutor registers the exec hook (see Executor).
func (n *Node) SetExecutor(e Executor) {
	if e == nil {
		n.exec.Store(nil)
		return
	}
	n.exec.Store(&e)
}

// Drain flips the node into its polite exit: it refuses stores of keys
// it does not already hold and keeps the values it holds, and it marks
// every response and request Draining so peers drop it from their
// member sets instead of routing new work here.
func (n *Node) Drain() { n.draining.Store(true) }

// ---------------------------------------------------------------------------
// RPC receive path

// errText is err's message cut to MaxErrBytes, so a response stays
// within MaxResponseBytes whatever a request or an executor put in it.
func errText(err error) string {
	s := err.Error()
	if len(s) > MaxErrBytes {
		s = s[:MaxErrBytes]
	}
	return s
}

// HandleRPC is the node's RPC entry point; transports route every
// received request here. It never returns nil.
func (n *Node) HandleRPC(ctx context.Context, req *Request) *Response {
	resp := &Response{From: n.self, Draining: n.draining.Load()}
	if err := req.Validate(); err != nil {
		resp.Err = errText(err)
		mRPCErrors.With(string(req.Op)).Inc()
		return resp
	}
	mRPCs.With(string(req.Op), "served").Inc()
	// A draining caller leaves the member set rather than re-entering it.
	if req.Draining {
		n.table.Remove(req.From.ID)
	} else {
		n.table.Update(req.From)
	}
	switch req.Op {
	case OpPing:
		// The response envelope is the whole answer.
	case OpStore:
		if resp.Draining {
			// Fresh keys are refused while draining; re-replication of
			// keys already held stays welcome so nothing regresses. A list
			// holding any fresh key is refused whole.
			for _, b := range req.Blobs {
				if !n.blobs.Contains(b.Key) {
					resp.Err = "cluster: node draining, not accepting new keys"
					return resp
				}
			}
		}
		for _, b := range req.Blobs {
			n.blobs.Put(b.Key, blob{b.Kind, b.Value})
		}
		resp.Stored = true
	case OpFindNode:
		resp.Contacts = n.table.KClosest(KeyID(req.Key), MaxContacts)
	case OpExec:
		ep := n.exec.Load()
		if ep == nil {
			resp.Err = "cluster: node has no executor"
			return resp
		}
		out, err := (*ep)(ctx, req.Kind, req.Value)
		if err != nil {
			resp.Err = errText(err)
			return resp
		}
		resp.Value = out
	}
	return resp
}

// ---------------------------------------------------------------------------
// RPC send path

// call issues one RPC, naming this node and its drain state, and folds
// the answer into the member set: a healthy responder is refreshed, a
// draining one is removed (that is how a departing node ages out), and
// a transport failure evicts the contact — unless the caller's own
// context had ended, which says nothing about the peer.
func (n *Node) call(ctx context.Context, to Contact, req *Request) (*Response, error) {
	req.From = n.self
	req.Draining = n.draining.Load()
	mRPCs.With(string(req.Op), "sent").Inc()
	resp, err := n.tr.Call(ctx, to.Addr, req)
	if err != nil {
		mRPCErrors.With(string(req.Op)).Inc()
		if ctx.Err() == nil {
			n.table.Remove(to.ID)
		}
		return nil, err
	}
	if resp.Draining {
		n.table.Remove(resp.From.ID)
	} else {
		n.table.Update(resp.From)
	}
	return resp, nil
}

// Ping probes addr and returns the peer's contact.
func (n *Node) Ping(ctx context.Context, addr string) (Contact, error) {
	resp, err := n.call(ctx, Contact{Addr: addr}, &Request{Op: OpPing})
	if err != nil {
		return Contact{}, err
	}
	if resp.Err != "" {
		return Contact{}, fmt.Errorf("cluster: ping %s: %s", addr, resp.Err)
	}
	return resp.From, nil
}

// Join bootstraps into the cluster through the given peer addresses
// and fills the member set. It pings each bootstrap, then asks every
// member it learns of once, breadth first, for the members nearest
// that member (FIND_NODE). A contact enters the set only when it
// answers, and every request names this node, so each member asked
// adds it in turn: while one FIND_NODE answer can list every member
// (up to MaxContacts+1 nodes), one join makes a full mesh. At least
// one bootstrap must answer; with no addresses Join asks the members
// already known.
func (n *Node) Join(ctx context.Context, addrs ...string) error {
	reached := 0
	for _, addr := range addrs {
		if addr == "" || addr == n.self.Addr {
			continue
		}
		c, err := n.Ping(ctx, addr)
		if err != nil {
			n.log.Warn("cluster: bootstrap unreachable", slog.String("addr", addr), slog.String("error", err.Error()))
			continue
		}
		reached++
		n.log.Info("cluster: joined via bootstrap",
			slog.String("addr", addr), slog.String("peer", c.ID.String()))
	}
	if reached == 0 && len(addrs) > 0 {
		return fmt.Errorf("cluster: no bootstrap peer reachable (tried %v)", addrs)
	}
	asked := map[ID]bool{n.self.ID: true}
	for queue := n.table.Contacts(); len(queue) > 0; queue = queue[1:] {
		c := queue[0]
		if asked[c.ID] || c.ID.IsZero() || c.Addr == "" {
			continue
		}
		asked[c.ID] = true
		resp, err := n.call(ctx, c, &Request{Op: OpFindNode, Key: idKey(c.ID)})
		if err == nil && resp.Err == "" {
			queue = append(queue, resp.Contacts...)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// The DHT surface

// Owner returns the cluster member closest to key — the node that owns
// its computation. The decision reads only the local member set (no
// RPCs): nodes that know the same members name the same owner, and a
// set that lags a join or a departure merely shifts work to a
// near-owner, which the service layer's fallbacks absorb.
func (n *Node) Owner(key string) Contact {
	target := KeyID(key)
	best := n.self
	for _, c := range n.table.KClosest(target, 1) {
		if Closer(target, c.ID, best.ID) {
			best = c
		}
	}
	return best
}

// Owners returns the K closest cluster members to key (self included
// when it qualifies) — the key's replica set.
func (n *Node) Owners(key string) []Contact {
	target := KeyID(key)
	cs := append(n.table.KClosest(target, DefaultK), n.self)
	sortByDistance(target, cs)
	if len(cs) > DefaultK {
		cs = cs[:DefaultK]
	}
	return cs
}

// Hold keeps a blob in the local store when this node is in its key's
// replica set and not draining, and reports whether it did: the node's
// own copy of a value it replicates.
func (n *Node) Hold(b Blob) bool {
	if n.draining.Load() || !n.inReplicaSet(b.Key) {
		return false
	}
	n.blobs.Put(b.Key, blob{b.Kind, b.Value})
	mStores.Inc()
	return true
}

// inReplicaSet reports whether this node is among key's K closest. A
// table of fewer than K peers puts every node in every replica set.
func (n *Node) inReplicaSet(key string) bool {
	if n.table.Len() < DefaultK {
		return true
	}
	for _, c := range n.Owners(key) {
		if c.ID == n.self.ID {
			return true
		}
	}
	return false
}

// Replicate sends every blob to the peers in its key's replica set, one
// STORE per peer listing all the blobs that peer should hold (split at
// MaxStoreBlobs blobs or MaxValueBytes of values); this node's own copy
// is Hold's. It returns how many peers acknowledged each blob and how
// many STOREs it sent. A peer that fails is skipped for the rest of the
// call — replication is best effort.
func (n *Node) Replicate(ctx context.Context, blobs []Blob) (acks []int, stores int) {
	type peer struct {
		to  Contact
		idx []int // indices into blobs
	}
	var peers []*peer
	byID := map[ID]*peer{}
	for i, b := range blobs {
		for _, c := range n.Owners(b.Key) {
			if c.ID == n.self.ID {
				continue
			}
			p := byID[c.ID]
			if p == nil {
				p = &peer{to: c}
				byID[c.ID] = p
				peers = append(peers, p)
			}
			p.idx = append(p.idx, i)
		}
	}
	acks = make([]int, len(blobs))
	for _, p := range peers {
		for rest := p.idx; len(rest) > 0; {
			take, size := 0, 0
			for take < len(rest) && take < MaxStoreBlobs {
				v := len(blobs[rest[take]].Value)
				if take > 0 && size+v > MaxValueBytes {
					break
				}
				size += v
				take++
			}
			list := make([]Blob, take)
			for k, i := range rest[:take] {
				list[k] = blobs[i]
			}
			stores++
			resp, err := n.call(ctx, p.to, &Request{Op: OpStore, Blobs: list})
			if err != nil {
				break
			}
			if resp.Err == "" && resp.Stored {
				for _, i := range rest[:take] {
					acks[i]++
				}
				mStores.Add(uint64(take))
			}
			rest = rest[take:]
		}
	}
	return acks, stores
}

// GetCached returns a value from the local blob store. There is no
// remote read: a node that lacks a value computes it (content
// addressing makes re-derivation safe).
func (n *Node) GetCached(key string) ([]byte, string, bool) {
	b, ok := n.blobs.Get(key)
	return b.value, b.kind, ok
}

// Exec runs an opaque request on a specific peer — the cross-node
// singleflight's forwarding edge. The callee's executor errors come
// back as errors here.
func (n *Node) Exec(ctx context.Context, to Contact, kind string, payload []byte) ([]byte, error) {
	resp, err := n.call(ctx, to, &Request{Op: OpExec, Kind: kind, Value: payload})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("cluster: exec on %s: %s", to.Addr, resp.Err)
	}
	return resp.Value, nil
}

// ---------------------------------------------------------------------------
// Status

// Status is the introspection document behind GET /v1/cluster/status
// and `simdctl cluster status`.
type Status struct {
	Name     string `json:"name"`
	ID       ID     `json:"id"`
	Addr     string `json:"addr"`
	Draining bool   `json:"draining"`
	// K is the replication factor.
	K int `json:"k"`
	// Peers is every member this node knows, ordered by ID.
	Peers []Contact `json:"peers"`
	// StoredKeys counts local blob-store entries; KeysByKind splits
	// them by kind; OwnedKeys counts the subset this node is the
	// cluster-wide owner of.
	StoredKeys int            `json:"stored_keys"`
	OwnedKeys  int            `json:"owned_keys"`
	KeysByKind map[string]int `json:"keys_by_kind,omitempty"`
}

// Status snapshots the node.
func (n *Node) Status() Status {
	peers := n.table.Contacts()
	sort.Slice(peers, func(i, j int) bool {
		return bytes.Compare(peers[i].ID[:], peers[j].ID[:]) < 0
	})
	st := Status{
		Name:     n.name,
		ID:       n.self.ID,
		Addr:     n.self.Addr,
		Draining: n.draining.Load(),
		K:        DefaultK,
		Peers:    peers,
	}
	st.KeysByKind = map[string]int{}
	n.blobs.Range(func(key string, b blob) {
		st.StoredKeys++
		st.KeysByKind[b.kind]++
		if n.Owner(key).ID == n.self.ID {
			st.OwnedKeys++
		}
	})
	if len(st.KeysByKind) == 0 {
		st.KeysByKind = nil
	}
	return st
}

// blob is one value of the local store with its kind label.
type blob struct {
	kind  string
	value []byte
}
