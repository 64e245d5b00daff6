package service

import (
	"encoding/json"
	"testing"
)

// FuzzScenarioRequestDecode: arbitrary JSON on the scenario endpoint —
// axes of every kind, degradation blocks, malformed values — must
// either be rejected cleanly at decode/validation time or produce a
// spec whose cache key is deterministic. No input may panic the
// decoder or the planner's normalization.
// `go test` exercises the seed corpus;
// `go test -fuzz=FuzzScenarioRequestDecode` explores further.
func FuzzScenarioRequestDecode(f *testing.F) {
	seeds := []string{
		`{"app":"cg","ranks":8,"output":"finish"}`,
		`{"app":"cg","ranks":8,"axes":[{"kind":"bandwidth","values":[125,500]},{"kind":"mapping","mappings":["block","rr"]}]}`,
		`{"app":"cg","ranks":8,"axes":[{"kind":"derate","values":[1,0.5]},{"kind":"jitter","values":[0,0.2]}]}`,
		`{"app":"cg","ranks":8,"axes":[{"kind":"stragglers","counts":[0,2]},{"kind":"link-down","counts":[0,1]}]}`,
		`{"app":"cg","ranks":8,"degradations":{"derate_inter":0.5,"jitter_frac":0.2,"stragglers":2,"straggler_factor":3,"seed":11}}`,
		`{"app":"cg","ranks":8,"degradations":{"down_nodes":[0],"down_links":[[0,1]],"link_down":1}}`,
		`{"app":"cg","ranks":8,"degradations":{"derate_inter":-1}}`,
		`{"app":"cg","ranks":8,"axes":[{"kind":"derate","values":[2]}]}`,
		`{"trace":"sha256:0000000000000000000000000000000000000000000000000000000000000000"}`,
		`{"app":"cg","trace":"both"}`,
		`{"app":"nope","ranks":8}`,
		`{"app":"cg","ranks":-4}`,
		`{}`,
		`garbage`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	mgr, err := NewManager(Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ScenarioRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return // clean rejection at the decode layer
		}
		_, key1, _, err := req.spec(mgr, nil, "")
		if err != nil {
			return // clean rejection at validation time
		}
		// An accepted spec must key deterministically: the cache and
		// singleflight table hang off this digest.
		_, key2, _, err := req.spec(mgr, nil, "")
		if err != nil {
			t.Fatalf("spec accepted once then rejected: %v", err)
		}
		if key1 != key2 {
			t.Fatalf("cache key unstable: %s vs %s", key1, key2)
		}
	})
}
