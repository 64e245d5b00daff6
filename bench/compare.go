package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareFiles applies BENCHMARK.json's bounds to two -all result files
// (the parent's first) and prints one row per workload: each end-to-end
// metric's change, marked "!" where it worsened by more than its bound.
// It exits 1 when any metric regressed or any workload is missing.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	bf, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var files [2]allResults
	for i, p := range []string{oldPath, newPath} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	names := make([]string, 0, len(files[0].Workloads))
	for name := range files[0].Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	status := 0
	for _, name := range names {
		o := files[0].Workloads[name]
		n, ok := files[1].Workloads[name]
		if !ok {
			fmt.Fprintf(stdout, "%-14s MISSING in %s\n", name, newPath)
			status = 1
			continue
		}
		verdict := "ok"
		var cells []string
		for _, m := range bf.EndToEnd {
			ov, nv := o.Metrics[m.Name].Value, n.Metrics[m.Name].Value
			if ov == 0 {
				cells = append(cells, m.Name+"=n/a")
				continue
			}
			change := (nv - ov) / ov
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			mark := ""
			if worse > m.Bound {
				mark, verdict, status = "!", "REGRESSED", 1
			}
			cells = append(cells, fmt.Sprintf("%s=%+.1f%%%s", m.Name, 100*change, mark))
		}
		sha := "sha=same"
		if o.OutputSHA256 != n.OutputSHA256 {
			sha = "sha=DIFFERENT"
		}
		if !n.Correct {
			verdict, status = "INCORRECT", 1
		}
		fmt.Fprintf(stdout, "%-14s %-9s %s %s\n", name, verdict, sha, strings.Join(cells, " "))
	}
	return status
}
