// Internal test of job retention: it holds the manager's only execution
// slot so one job stays in flight while cached submissions fill the
// table past its bound.
package service

import (
	"fmt"
	"testing"

	"repro/internal/engine"
)

// TestJobRetentionPrunesOldestFinished: past maxRetainedJobs the oldest
// finished jobs go first, an in-flight job never goes however old it
// is, and Jobs() stays at the bound. Once that job finishes it is the
// oldest, so it goes next.
func TestJobRetentionPrunesOldestFinished(t *testing.T) {
	m, err := NewManager(Options{Engine: engine.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	req := ScenarioRequest{App: "cg", Ranks: 4}
	first, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	m.slots <- struct{}{} // the next fresh job stays in flight
	pending, err := m.Submit(ScenarioRequest{App: "cg", Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	const hits = maxRetainedJobs + 100 // cache hits: born-done jobs
	for i := 0; i < hits; i++ {
		if _, err := m.Submit(req); err != nil {
			t.Fatal(err)
		}
	}

	jobs := m.Jobs()
	if len(jobs) != maxRetainedJobs {
		t.Fatalf("%d jobs retained, want %d", len(jobs), maxRetainedJobs)
	}
	if jobs[0] != pending || pending.Finished() {
		t.Fatalf("in-flight job not kept first: jobs[0] = %s", jobs[0].ID())
	}
	if _, ok := m.Job(first.ID()); ok {
		t.Fatal("oldest finished job survived the bound")
	}
	// The survivors are the newest finished jobs, in submission order.
	newest := 2 + hits
	for i, j := range jobs[1:] {
		if want := fmt.Sprintf("job-%08d", newest-len(jobs)+2+i); j.ID() != want || !j.Finished() {
			t.Fatalf("jobs[%d] = %s (finished %v), want finished %s", i+1, j.ID(), j.Finished(), want)
		}
	}

	<-m.slots
	if _, err := pending.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(req); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Job(pending.ID()); ok || len(m.Jobs()) != maxRetainedJobs {
		t.Fatalf("finished job %s kept past the bound (%d jobs)", pending.ID(), len(m.Jobs()))
	}
}
