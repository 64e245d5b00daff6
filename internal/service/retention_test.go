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
// is, and Jobs() stays at the bound, across several compactions of the
// retained list. Once that job finishes it is the oldest, so it goes
// next.
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

	// check: the in-flight job first, then the newest finished jobs in
	// submission order, maxRetainedJobs in all.
	check := func(when string) {
		t.Helper()
		jobs := m.Jobs()
		if len(jobs) != maxRetainedJobs {
			t.Fatalf("%s: %d jobs retained, want %d", when, len(jobs), maxRetainedJobs)
		}
		if jobs[0] != pending || pending.Finished() {
			t.Fatalf("%s: in-flight job not kept first: jobs[0] = %s", when, jobs[0].ID())
		}
		m.mu.Lock()
		newest := int(m.seq)
		m.mu.Unlock()
		for i, j := range jobs[1:] {
			if want := fmt.Sprintf("job-%08d", newest-len(jobs)+2+i); j.ID() != want || !j.Finished() {
				t.Fatalf("%s: jobs[%d] = %s (finished %v), want finished %s", when, i+1, j.ID(), j.Finished(), want)
			}
		}
	}
	// Cache hits are born-done jobs. Submit them until the retained list
	// has been compacted three times, checking it after each compaction.
	compactions, submits := 0, 0
	for compactions < 3 {
		if submits++; submits > 8*maxRetainedJobs {
			t.Fatalf("%d compactions after %d submits, want 3", compactions, submits)
		}
		m.mu.Lock()
		head := m.head
		m.mu.Unlock()
		if _, err := m.Submit(req); err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		compacted := m.head < head
		m.mu.Unlock()
		if compacted {
			compactions++
			check(fmt.Sprintf("compaction %d", compactions))
		}
	}
	check("after the compactions")
	if _, ok := m.Job(first.ID()); ok {
		t.Fatal("oldest finished job survived the bound")
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
