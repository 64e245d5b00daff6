package cluster

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// The cluster_* instrument families. Counters are incremented inline on
// the RPC paths; gauges read the live node at scrape time through
// activeNode — registered once per process, pointing at the node most
// recently built, so tests constructing many nodes neither panic nor
// double-register (the same discipline internal/service uses for its
// manager gauges).
var (
	mRPCs      = telemetry.Default().CounterVec("cluster_rpcs_total", "cluster RPC envelopes, by op and direction", "op", "dir")
	mRPCErrors = telemetry.Default().CounterVec("cluster_rpc_errors_total", "cluster RPCs that failed (transport errors sent, invalid envelopes served)", "op")
)

var (
	nodeMetricsOnce sync.Once
	activeNode      atomic.Pointer[Node]
)

func publishNodeMetrics(n *Node) {
	activeNode.Store(n)
	nodeMetricsOnce.Do(func() {
		reg := telemetry.Default()
		read := func(get func(*Node) float64) func() float64 {
			return func() float64 {
				node := activeNode.Load()
				if node == nil {
					return 0
				}
				return get(node)
			}
		}
		reg.GaugeFunc("cluster_routing_peers", "peers in the node's member set", read(func(n *Node) float64 {
			return float64(n.table.Len())
		}))
		reg.GaugeFunc("cluster_draining", "1 while the node is leaving the cluster", read(func(n *Node) float64 {
			if n.draining.Load() {
				return 1
			}
			return 0
		}))
	})
}
