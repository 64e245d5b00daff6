package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/service/client"
)

// node is one in-process simd: engine, manager, HTTP API on a loopback
// server, and the client the load generator talks to it through.
type node struct {
	eng  *engine.Engine
	mgr  *service.Manager
	srv  *httptest.Server
	cl   *client.Client
	peer *cluster.Node // nil when standalone
}

// stack is the system under test: one standalone node, or several joined
// into a cluster over the HTTP peer transport.
type stack struct {
	nodes []*node
	// hc carries the load generator's requests: at most 2 connections,
	// the most the closed loop ever has in flight.
	hc *http.Client
	// rpc is the HTTP client the cluster transport dials peers with.
	rpc *http.Client
}

func newLoadClient(rec *recorder) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConns:        2,
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	if rec != nil {
		rt = rec.roundTripper(rt)
	}
	return &http.Client{Transport: rt}
}

// newStack builds n nodes: a standalone one uses a 2-worker engine, each
// cluster member a 1-worker engine. rec, when non-nil, wraps the client
// transport, every server handler, and the peer transport.
func newStack(ctx context.Context, n int, rec *recorder) (*stack, error) {
	st := &stack{hc: newLoadClient(rec)}
	if n == 1 {
		eng := engine.New(2)
		mgr, err := service.NewManager(service.Options{Engine: eng})
		if err != nil {
			return nil, err
		}
		srv := httptest.NewServer(rec.handler(service.NewHandler(mgr), 0))
		st.nodes = []*node{{eng: eng, mgr: mgr, srv: srv, cl: client.New(srv.URL, st.hc)}}
		return st, nil
	}

	var rpcRT http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second, DisableCompression: true}
	if rec != nil {
		rpcRT = rec.countingRoundTripper(rpcRT)
	}
	st.rpc = &http.Client{Transport: rpcRT}
	// Each node's address must exist before its cluster identity does, so
	// the listeners open first and start serving once the handler exists.
	for i := 0; i < n; i++ {
		st.nodes = append(st.nodes, &node{srv: httptest.NewUnstartedServer(nil)})
	}
	for i, nd := range st.nodes {
		rec.addNode("http://"+nd.srv.Listener.Addr().String(), i)
	}
	for i, nd := range st.nodes {
		var tr cluster.Transport = &client.ClusterTransport{HC: st.rpc, Retry: client.RetryPolicy{Retries: 2}}
		tr = rec.transport(tr, i)
		peer, err := cluster.NewNode(cluster.Config{
			Name:      fmt.Sprintf("node-%d", i),
			Addr:      "http://" + nd.srv.Listener.Addr().String(),
			Transport: tr,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		nd.eng = engine.New(1)
		nd.peer = peer
		if nd.mgr, err = service.NewManager(service.Options{Engine: nd.eng, Cluster: peer}); err != nil {
			st.close()
			return nil, err
		}
		nd.srv.Config.Handler = rec.handler(service.NewHandler(nd.mgr), i)
		nd.srv.Start()
		nd.cl = client.New(nd.srv.URL, st.hc)
	}
	for _, nd := range st.nodes[1:] {
		if err := nd.peer.Join(ctx, st.nodes[0].peer.Self().Addr); err != nil {
			st.close()
			return nil, err
		}
	}
	// A second self-lookup round lets early joiners learn late ones, so
	// every node names the same owner for every key.
	for _, nd := range st.nodes {
		if err := nd.peer.Join(ctx); err != nil {
			st.close()
			return nil, err
		}
	}
	for i, nd := range st.nodes {
		if got := nd.peer.Table().Len(); got != n-1 {
			st.close()
			return nil, fmt.Errorf("cluster node %d knows %d peers, want %d", i, got, n-1)
		}
	}
	return st, nil
}

// nodeOf returns the index of the node whose peer address is addr.
func (st *stack) nodeOf(addr string) int {
	for i, nd := range st.nodes {
		if nd.peer != nil && nd.peer.Self().Addr == addr {
			return i
		}
	}
	return -1
}

// close drains cluster members (flushing background replication) and
// shuts every server down.
func (st *stack) close() {
	for _, nd := range st.nodes {
		if nd.peer != nil && nd.mgr != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			nd.mgr.Drain(ctx)
			cancel()
		}
	}
	for _, nd := range st.nodes {
		if nd.srv != nil {
			nd.srv.Close()
		}
	}
	st.hc.CloseIdleConnections()
	if st.rpc != nil {
		st.rpc.CloseIdleConnections()
	}
}
