// Command benchgate is the CI benchmark regression gate: it compares
// ns/op between two benchmark runs and exits non-zero when any gated
// benchmark regressed by more than the threshold.
//
//	benchgate -old old.txt -new new.txt    # two `go test -bench` outputs
//
// CI runs the gated benchmarks at the merge base and at HEAD on the same
// runner, so the ratio is machine-consistent (ns/op does not transfer
// across hosts).
//
// Each benchmark's ns/op is the minimum across -count repetitions (the
// least-noisy estimator for a gate: the min is the run least disturbed
// by the machine). Benchmarks are matched by name with any trailing
// -<procs> suffix stripped and filtered by -match. A benchmark present on
// only one side is listed as "new, no baseline" or "gone" and never
// fails the gate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	oldPath := flag.String("old", "", "baseline `go test -bench` output file")
	newPath := flag.String("new", "", "candidate `go test -bench` output file")
	match := flag.String("match", "BenchmarkSimCompiledReplay|BenchmarkScenarioStream", "regexp of benchmark names to gate")
	threshold := flag.Float64("threshold", 10, "maximum allowed ns/op regression in percent")
	flag.Parse()

	if err := run(*oldPath, *newPath, *match, *threshold, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
}

func run(oldPath, newPath, match string, threshold float64, w io.Writer) error {
	if oldPath == "" || newPath == "" {
		return fmt.Errorf("-old and -new are required")
	}
	re, err := regexp.Compile(match)
	if err != nil {
		return fmt.Errorf("-match: %w", err)
	}

	old, err := readBenchFile(oldPath)
	if err != nil {
		return err
	}
	cur, err := readBenchFile(newPath)
	if err != nil {
		return err
	}

	var names []string
	both := 0
	for name := range old {
		if re.MatchString(name) {
			names = append(names, name)
			if _, ok := cur[name]; ok {
				both++
			}
		}
	}
	for name := range cur {
		if _, ok := old[name]; !ok && re.MatchString(name) {
			names = append(names, name)
		}
	}
	if both == 0 {
		return fmt.Errorf("no gated benchmarks matched %q on both sides — gate misconfigured?", match)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		o, inOld := old[name]
		c, inCur := cur[name]
		switch {
		case !inOld:
			fmt.Fprintf(w, "%-55s %12s -> %12.0f ns/op  %7s  new, no baseline\n", name, "-", c, "")
		case !inCur:
			fmt.Fprintf(w, "%-55s %12.0f -> %12s ns/op  %7s  gone\n", name, o, "-", "")
		default:
			delta := (c - o) / o * 100
			verdict := "ok"
			if delta > threshold {
				verdict = "FAIL"
				failed = true
			}
			fmt.Fprintf(w, "%-55s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n", name, o, c, delta, verdict)
		}
	}
	if failed {
		return fmt.Errorf("ns/op regression above %.0f%% threshold", threshold)
	}
	return nil
}

// readBenchFile parses `go test -bench` output and returns the minimum
// ns/op per benchmark name (trailing -<procs> suffix stripped) across
// all repetitions in the file.
func readBenchFile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

func parseBench(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := trimProcs(fields[0])
		// Fields after the iteration count come in value/unit pairs; find
		// the ns/op pair.
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
			}
			if prev, ok := out[name]; !ok || v < prev {
				out[name] = v
			}
			break
		}
	}
	return out, sc.Err()
}

// trimProcs strips the -<GOMAXPROCS> suffix go test appends when
// GOMAXPROCS > 1, so names match across configurations.
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
