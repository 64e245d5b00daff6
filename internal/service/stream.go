package service

import (
	"bytes"
	"context"
	"encoding/json"
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
// cache like batch runs do, as one copy of the batch bytes with its
// frame boundaries (reply), and cached reruns write their frames from
// those boundaries without parsing anything or touching the engine.

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

// reply is what a job answers and the result cache keeps: the batch
// body and, for a scenario reply, where its stream frames lie in that
// one copy. A scenario body is the header's fields, "points", and the
// point array (payloadAssembler): the header frame's object is
// body[:hdr] closed by "}", and point i is body[points[i]:points[i+1]-1]
// (the last entry is where a point after the last would start, past the
// closing "]"). A per-kind reply has no frames.
type reply struct {
	body   []byte
	hdr    int
	points []int
}

// frames reports how many point frames the reply holds.
func (r reply) frames() int { return len(r.points) - 1 }

// payloadAssembler accumulates streamed frames into exactly the bytes
// json.Marshal(*core.ScenarioResult) would produce — the batch reply,
// and the spec-level cache entry a completed stream deposits — and
// records where each frame lies in them.
type payloadAssembler struct {
	buf    bytes.Buffer
	hdr    int
	points []int
}

// pointsArray joins a scenario reply's header fields to its points.
var pointsArray = []byte(`,"points":[`)

// newPayloadAssembler starts a reply with a header; size, when known,
// is the reply's length, so a cached reply holds no spare capacity.
func newPayloadAssembler(hdrJSON []byte, size int) *payloadAssembler {
	a := &payloadAssembler{hdr: len(hdrJSON) - 1} // drop the header's closing brace
	a.buf.Grow(size)
	a.buf.Write(hdrJSON[:a.hdr])
	a.buf.Write(pointsArray)
	return a
}

func (a *payloadAssembler) point(pointJSON []byte) {
	if len(a.points) > 0 {
		a.buf.WriteByte(',')
	}
	a.points = append(a.points, a.buf.Len())
	a.buf.Write(pointJSON)
}

func (a *payloadAssembler) finish() reply {
	a.buf.WriteString(`]}`)
	return reply{body: a.buf.Bytes(), hdr: a.hdr, points: append(a.points, a.buf.Len()-1)}
}

// assemble marshals a scenario result into its reply, frame by frame.
func assemble(res *core.ScenarioResult) (reply, error) {
	hdrJSON, err := json.Marshal(&res.ScenarioHeader)
	if err != nil {
		return reply{}, err
	}
	points := make([][]byte, len(res.Points))
	size := len(hdrJSON) + len(pointsArray) + 1 + max(len(points)-1, 0)
	for i := range res.Points {
		if points[i], err = json.Marshal(&res.Points[i]); err != nil {
			return reply{}, err
		}
		size += len(points[i])
	}
	a := newPayloadAssembler(hdrJSON, size)
	for _, pt := range points {
		a.point(pt)
	}
	return a.finish(), nil
}

// streamScenario serves POST /v1/scenarios as NDJSON through the same
// identity and execution steps as a batch submission (Manager.open). A
// memoized, cached or in-flight spec replays its completed reply from
// its stored frame boundaries; a fresh one streams its points as the
// planner emits them — the 200 header goes out only once the request
// holds an execution slot, so a full queue answers 429 with no frames —
// unless its digest's owner serves it, in which case the owner's reply
// replays like a cached one.
func streamScenario(m *Manager, w http.ResponseWriter, r *http.Request, body []byte) {
	j, t, fresh, err := m.open(r.Pattern, body, decodeAs[ScenarioRequest], slotted)
	if rejected(m, w, r, err) {
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	logSubmitted(m, r, j)
	if !fresh {
		rep, err := j.wait(r.Context())
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeReply(w, j, rep)
		return
	}
	// Fresh execution, owned by this request goroutine. The client
	// vanishing cancels the job; the job's context is what the planner
	// watches. Only a run streamed here builds the header: a hit, an
	// attach or an owner-served reply replays bytes that carry it.
	stop := context.AfterFunc(r.Context(), j.cancel)
	defer stop()
	var asm *payloadAssembler // set once this request streams the run itself
	rep, err := m.execute(j, t, slotted, func(ctx context.Context) (reply, error) {
		hdr, err := t.sc.Header()
		if err != nil {
			return reply{}, err
		}
		hdrJSON, err := json.Marshal(hdr)
		if err != nil {
			return reply{}, err
		}
		w.Header().Set("Content-Type", NDJSONContentType)
		w.Header().Set("X-Job-Id", j.ID())
		w.Header().Set("X-Cache", cacheHeader(j))
		w.WriteHeader(http.StatusOK)
		if err := writeFrame(w, "header", hdrJSON); err != nil {
			// The client is gone; finish bookkeeping without streaming.
			j.cancel()
		}
		asm = newPayloadAssembler(hdrJSON, 0)
		_, err = core.RunScenarioStream(ctx, m.eng, *t.sc, func(pt core.ScenarioPoint) error {
			ptJSON, err := json.Marshal(pt)
			if err != nil {
				return err
			}
			asm.point(ptJSON)
			return writeFrame(w, "point", ptJSON)
		})
		if err != nil {
			return reply{}, err
		}
		return asm.finish(), nil
	})
	switch {
	case asm == nil && err != nil: // cancelled while queued, or no header
		writeError(w, http.StatusInternalServerError, err)
	case asm == nil: // served by the digest's owner
		writeReply(w, j, rep)
	case err != nil:
		msg, _ := json.Marshal(err.Error()) // a string always marshals
		writeFrame(w, "error", msg)
	default:
		writeFrame(w, "done", doneJSON(rep.frames()))
	}
}

// doneJSON is the done frame's payload for a stream of n points.
func doneJSON(n int) []byte {
	b, _ := json.Marshal(StreamDone{Points: n}) // an int always marshals
	return b
}

// The fixed bytes a replayed reply's frames are spliced from.
var (
	headerOpen  = []byte(`{"header":`)
	headerClose = []byte("}}\n") // the header object's brace, then the frame's
	pointOpen   = []byte(`{"point":`)
	doneOpen    = []byte(`{"done":`)
	frameClose  = []byte("}\n")
)

// writeReply replays a completed scenario reply as NDJSON frames — the
// cached-rerun path — cut from the reply's stored frame boundaries with
// nothing parsed, and flushed once. The frames are byte-identical to the
// ones the original stream emitted.
func writeReply(w http.ResponseWriter, j *Job, r reply) {
	w.Header().Set("Content-Type", NDJSONContentType)
	w.Header().Set("X-Job-Id", j.ID())
	w.Header().Set("X-Cache", cacheHeader(j))
	w.WriteHeader(http.StatusOK)
	var err error
	put := func(b []byte) {
		if err == nil {
			_, err = w.Write(b)
		}
	}
	put(headerOpen)
	put(r.body[:r.hdr])
	put(headerClose)
	n := r.frames()
	for i := range n {
		put(pointOpen)
		put(r.body[r.points[i] : r.points[i+1]-1])
		put(frameClose)
	}
	put(doneOpen)
	put(doneJSON(n))
	put(frameClose)
	if f, ok := w.(http.Flusher); ok && err == nil {
		f.Flush()
	}
}
