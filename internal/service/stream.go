package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
)

// The streaming face of POST /v1/scenarios. When a client asks with
// Accept: application/x-ndjson, the response is newline-delimited
// frames instead of one batch object:
//
//	{"header":{...}}          the ScenarioHeader, first
//	{"point":{...}}           one frame per grid point, in result order
//	{"done":{"points":N}}     terminal frame of a successful stream
//	{"error":"..."}           terminal frame of a failed one
//
// Frames are spliced from exactly the bytes the batch reply is built
// of, so concatenating the header and point payloads (with the points
// wrapped back into a "points" array) reproduces the batch JSON
// byte-for-byte — cached or fresh, streamed or not, one spec has one
// serialized result. Completed streams land in the spec-level result
// cache like batch runs do, and cached reruns replay the stored bytes
// frame by frame without touching the engine.

// NDJSONContentType is the media type that selects (and labels) the
// streaming scenario response.
const NDJSONContentType = "application/x-ndjson"

// StreamDone is the payload of a successful stream's terminal frame.
type StreamDone struct {
	// Points is how many point frames preceded it.
	Points int `json:"points"`
}

// StreamFrame is one decoded line of the NDJSON stream — exactly one
// field is set. Clients normally consume it through
// client.ScenarioStream rather than decoding frames by hand.
type StreamFrame struct {
	Header json.RawMessage `json:"header,omitempty"`
	Point  json.RawMessage `json:"point,omitempty"`
	Done   *StreamDone     `json:"done,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// writeFrame emits one `{"<name>":<payload>}` line. Frames are spliced
// by hand from already-marshalled payloads so a cached replay and a
// fresh run emit byte-identical lines.
func writeFrame(w http.ResponseWriter, name string, payload []byte) error {
	var b bytes.Buffer
	b.Grow(len(name) + len(payload) + 6)
	b.WriteString(`{"`)
	b.WriteString(name)
	b.WriteString(`":`)
	b.Write(payload)
	b.WriteString("}\n")
	if _, err := w.Write(b.Bytes()); err != nil {
		return err
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// splitScenarioPayload decomposes a cached batch payload back into its
// header bytes and raw point payloads. The header re-marshal is exact:
// ScenarioHeader carries no floats, so unmarshal∘marshal is the
// identity on the bytes the assembler produced.
func splitScenarioPayload(payload []byte) ([]byte, []json.RawMessage, error) {
	var res struct {
		core.ScenarioHeader
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, nil, fmt.Errorf("service: split scenario payload: %w", err)
	}
	hdr, err := json.Marshal(res.ScenarioHeader)
	if err != nil {
		return nil, nil, err
	}
	return hdr, res.Points, nil
}

// payloadAssembler accumulates streamed frames into exactly the bytes
// json.Marshal(*core.ScenarioResult) would produce — the batch reply,
// and the spec-level cache entry a completed stream deposits.
type payloadAssembler struct {
	buf    bytes.Buffer
	points int
}

func newPayloadAssembler(hdrJSON []byte) *payloadAssembler {
	a := &payloadAssembler{}
	a.buf.Write(hdrJSON[:len(hdrJSON)-1]) // drop the header's closing brace
	a.buf.WriteString(`,"points":[`)
	return a
}

func (a *payloadAssembler) point(pointJSON []byte) {
	if a.points > 0 {
		a.buf.WriteByte(',')
	}
	a.buf.Write(pointJSON)
	a.points++
}

func (a *payloadAssembler) finish() []byte {
	a.buf.WriteString(`]}`)
	return a.buf.Bytes()
}

// streamScenario serves POST /v1/scenarios as NDJSON through the same
// identity and execution steps as Submit. A cached or in-flight spec
// replays its completed payload; a fresh one streams its points as the
// planner emits them — the 200 header goes out only once the request
// holds an execution slot, so a full queue answers 429 with no frames —
// unless its digest's owner serves it, in which case the owner's bytes
// replay like a cached payload.
func streamScenario(m *Manager, w http.ResponseWriter, r *http.Request, req ScenarioRequest) {
	t, err := m.prepare(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, fresh, err := m.begin(t, slotted)
	if rejected(m, w, r, err) {
		return
	}
	logSubmitted(m, r, j)
	var payload []byte
	if !fresh {
		if payload, err = j.Wait(r.Context()); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		streamPayload(w, j, payload)
		return
	}
	// Fresh execution, owned by this request goroutine. The client
	// vanishing cancels the job; the job's context is what the planner
	// watches. Only a run streamed here builds the header: a hit, an
	// attach or an owner-served reply replays bytes that carry it.
	stop := context.AfterFunc(r.Context(), j.cancel)
	defer stop()
	var asm *payloadAssembler // set once this request streams the run itself
	payload, err = m.execute(j, t, slotted, func(ctx context.Context) ([]byte, error) {
		hdr, err := t.sc.Header()
		if err != nil {
			return nil, err
		}
		hdrJSON, err := json.Marshal(hdr)
		if err != nil {
			return nil, err
		}
		w.Header().Set("Content-Type", NDJSONContentType)
		w.Header().Set("X-Job-Id", j.ID())
		w.Header().Set("X-Cache", cacheHeader(j))
		w.WriteHeader(http.StatusOK)
		if err := writeFrame(w, "header", hdrJSON); err != nil {
			// The client is gone; finish bookkeeping without streaming.
			j.cancel()
		}
		asm = newPayloadAssembler(hdrJSON)
		// The run's point store: in a cluster, the node's blob store
		// before the point LRU (cluster.go).
		sc, release := m.pointRun(t)
		defer release()
		_, err = core.RunScenarioStream(ctx, m.eng, sc, func(pt core.ScenarioPoint) error {
			ptJSON, err := json.Marshal(pt)
			if err != nil {
				return err
			}
			asm.point(ptJSON)
			return writeFrame(w, "point", ptJSON)
		})
		if err != nil {
			return nil, err
		}
		return asm.finish(), nil
	})
	switch {
	case asm == nil && err != nil: // cancelled while queued, or no header
		writeError(w, http.StatusInternalServerError, err)
	case asm == nil: // served by the digest's owner
		streamPayload(w, j, payload)
	case err != nil:
		msg, _ := json.Marshal(err.Error()) // a string always marshals
		writeFrame(w, "error", msg)
	default:
		done, _ := json.Marshal(StreamDone{Points: asm.points})
		writeFrame(w, "done", done)
	}
}

// streamPayload replays a completed batch payload as NDJSON frames —
// the cached-rerun path. The frames are byte-identical to the ones the
// original stream emitted.
func streamPayload(w http.ResponseWriter, j *Job, payload []byte) {
	hdrJSON, points, err := splitScenarioPayload(payload)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", NDJSONContentType)
	w.Header().Set("X-Job-Id", j.ID())
	w.Header().Set("X-Cache", cacheHeader(j))
	w.WriteHeader(http.StatusOK)
	if err := writeFrame(w, "header", hdrJSON); err != nil {
		return
	}
	for _, pt := range points {
		if err := writeFrame(w, "point", pt); err != nil {
			return
		}
	}
	done, _ := json.Marshal(StreamDone{Points: len(points)})
	writeFrame(w, "done", done)
}
