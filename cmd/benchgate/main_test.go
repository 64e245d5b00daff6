package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOld = `goos: linux
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimCompiledReplay/flat-degenerate         	     100	    600000 ns/op	      4800 records/replay	       0 B/op	       0 allocs/op
BenchmarkSimCompiledReplay/flat-degenerate         	     100	    580000 ns/op	      4800 records/replay	       0 B/op	       0 allocs/op
BenchmarkScenarioStream/batch-4                    	     100	   5000000 ns/op	        24.00 points	  296980 B/op	     702 allocs/op
BenchmarkOther/ignored                             	     100	    100000 ns/op
PASS
`

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchMinAndProcsSuffix(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOld))
	if err != nil {
		t.Fatal(err)
	}
	// Min across repetitions.
	if got["BenchmarkSimCompiledReplay/flat-degenerate"] != 580000 {
		t.Fatalf("min ns/op = %v, want 580000", got["BenchmarkSimCompiledReplay/flat-degenerate"])
	}
	// -4 procs suffix stripped.
	if got["BenchmarkScenarioStream/batch"] != 5000000 {
		t.Fatalf("procs suffix not stripped: %v", got)
	}
}

func TestGatePassAndFail(t *testing.T) {
	old := writeFile(t, "old.txt", sampleOld)

	// Within threshold (+5%): passes. The unmatched BenchmarkOther
	// regression must not trip the gate.
	pass := writeFile(t, "new-pass.txt", strings.NewReplacer(
		"580000", "580000", "600000", "609000", "5000000", "5200000", "100000", "900000",
	).Replace(sampleOld))
	if err := run(old, pass, "BenchmarkSimCompiledReplay|BenchmarkScenarioStream", 10, os.Stderr); err != nil {
		t.Fatalf("gate failed on a within-threshold run: %v", err)
	}

	// +25% on a gated benchmark: fails.
	fail := writeFile(t, "new-fail.txt", strings.NewReplacer(
		"600000", "750000", "580000", "725000",
	).Replace(sampleOld))
	if err := run(old, fail, "BenchmarkSimCompiledReplay|BenchmarkScenarioStream", 10, os.Stderr); err == nil {
		t.Fatal("gate passed a +25% regression")
	}
}

func TestGateRejectsEmptyMatch(t *testing.T) {
	old := writeFile(t, "old.txt", sampleOld)
	cur := writeFile(t, "new.txt", sampleOld)
	if err := run(old, cur, "BenchmarkNothingMatchesThis", 10, os.Stderr); err == nil {
		t.Fatal("gate passed with zero matched benchmarks")
	}
}

// TestGateListsOneSidedRows: a gated row on only one side is listed as
// new or gone, and neither fails the gate.
func TestGateListsOneSidedRows(t *testing.T) {
	old := writeFile(t, "old.txt", sampleOld+
		"BenchmarkSimCompiledReplay/retired   \t     100\t    300000 ns/op\n")
	cur := writeFile(t, "new.txt", sampleOld+
		"BenchmarkSimCompiledReplay/added-2   \t     100\t    900000 ns/op\n")
	var out strings.Builder
	if err := run(old, cur, "BenchmarkSimCompiledReplay|BenchmarkScenarioStream", 10, &out); err != nil {
		t.Fatalf("gate failed on one-sided rows: %v\n%s", err, out.String())
	}
	lines := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		lines[strings.Fields(line)[0]] = line
	}
	for name, verdict := range map[string]string{
		"BenchmarkSimCompiledReplay/added":           "900000 ns/op           new, no baseline",
		"BenchmarkSimCompiledReplay/retired":         "300000 ->            - ns/op           gone",
		"BenchmarkSimCompiledReplay/flat-degenerate": "ok",
		"BenchmarkScenarioStream/batch":              "ok",
	} {
		if line, ok := lines[name]; !ok || !strings.HasSuffix(line, verdict) {
			t.Errorf("%s: line %q, want it to end in %q", name, line, verdict)
		}
	}
	if len(lines) != 4 {
		t.Errorf("listed %d rows, want 4:\n%s", len(lines), out.String())
	}
}
