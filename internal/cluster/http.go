package cluster

import (
	"io"
	"net/http"
)

// The server half of the HTTP transport. One POST route carries every
// RPC: the envelope already multiplexes by op, so the HTTP layer stays
// a dumb pipe — strict decode, handle, encode. The client half lives in
// internal/service/client (ClusterTransport), where it reuses the
// client package's RetryPolicy for inter-node backoff.

// RPCPath is where ServeRPC mounts on the daemon's mux.
const RPCPath = "/v1/cluster/rpc"

// ServeRPC returns the handler for POST /v1/cluster/rpc. Malformed
// envelopes are 400s; valid ones always answer 200 with a Response
// (application-level failures travel in Response.Err, so transports
// never retry work the peer deliberately refused).
func ServeRPC(n *Node) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
		if err != nil {
			http.Error(w, "cluster: read rpc: "+err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		req, err := DecodeRequest(body)
		if err != nil {
			mRPCErrors.With("decode").Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := n.HandleRPC(r.Context(), req)
		out, err := resp.Encode()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
	}
}
