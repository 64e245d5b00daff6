package cluster

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync/atomic"
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

// Node is one cluster member: a member set and the RPC surface. All
// methods are safe for concurrent use.
type Node struct {
	name     string
	self     Contact
	tr       Transport
	table    *RoutingTable
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
		name: cfg.Name,
		self: Contact{ID: NodeID(cfg.Name), Addr: cfg.Addr},
		tr:   cfg.Transport,
		log:  log,
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

// Drain flips the node into its polite exit: it marks every response and
// request Draining so peers drop it from their member sets instead of
// routing new work here.
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
	// Peers is every member this node knows, ordered by ID.
	Peers []Contact `json:"peers"`
}

// Status snapshots the node.
func (n *Node) Status() Status {
	peers := n.table.Contacts()
	sort.Slice(peers, func(i, j int) bool {
		return bytes.Compare(peers[i].ID[:], peers[j].ID[:]) < 0
	})
	return Status{
		Name:     n.name,
		ID:       n.self.ID,
		Addr:     n.self.Addr,
		Draining: n.draining.Load(),
		Peers:    peers,
	}
}
