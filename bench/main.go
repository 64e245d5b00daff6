// Command bench is the end-to-end benchmark of the simulation service.
// It drives five seeded workloads through the public APIs — the HTTP
// handler on loopback servers, the Go client, the cluster node with the
// HTTP peer transport — checks every response for correctness, and
// prints one "workload metric value unit" line per metric, then a JSON
// result object as its last line.
//
//	go run . -all -seed 1               every workload, one subprocess each
//	go run . -workload cached-mix       one workload in this process
//	go run . -all -trace                per-layer metrics and spans
//	go run . -compare old.json new.json apply BENCHMARK.json's bounds
//
// From the repository root, bash bench/run.sh builds the benchmark into
// .bench_build/ and runs it with the same flags.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
)

// memLimit is the process's soft heap limit. The 256-rank traces
// big-point primes keep about 1.1 GB live; without a limit the collector
// lets the heap double before it runs.
const memLimit = 1536 << 20

func main() {
	debug.SetMemoryLimit(memLimit)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs lets "-trace 0" and "-trace 1" spell the boolean flag.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process")
	all := fs.Bool("all", false, "run every workload, each in its own subprocess")
	seed := fs.Int64("seed", 1, "input seed (seed 2 is held out for checking claims)")
	seconds := fs.Float64("seconds", 0, "measure for this many seconds instead of the fixed operation count")
	scale := fs.Float64("scale", 1, "fraction of the fixed operation count to run")
	traced := fs.Bool("trace", false, "traced run: per-layer metrics and spans instead of end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two -all result files: bench -compare old.json new.json")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg := config{seed: *seed, seconds: *seconds, scale: *scale, trace: *traced, setups: 3, outDir: outDir()}
	if *all {
		return runAll(cfg, stdout, stderr)
	}
	if *workload == "" {
		fmt.Fprintln(stderr, "bench: need -workload, -all or -compare")
		fs.Usage()
		return 2
	}
	cfg.workload = *workload
	res, err := runWorkload(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// outDir is where spans and result files go: bench/out from the
// repository root, out from the bench directory.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// allResults is the file -all writes and -compare reads.
type allResults struct {
	Seed      int64                     `json:"seed"`
	Trace     bool                      `json:"trace"`
	Seconds   float64                   `json:"seconds"`
	Scale     float64                   `json:"scale"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	result
	OutputSHA256 string `json:"output_sha256"`
}

// runAll re-executes this binary once per workload, relays its lines, and
// writes the collected results to out/all-seed<N>[-trace].json.
func runAll(cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	all := allResults{Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Scale: cfg.scale, Workloads: map[string]workloadResult{}}
	status := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
			"-trace=" + strconv.FormatBool(cfg.trace),
		}
		wr, err := runChild(self, args, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
		if wr != nil {
			all.Workloads[w.name] = *wr
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	name := fmt.Sprintf("all-seed%d.json", cfg.seed)
	if cfg.trace {
		name = fmt.Sprintf("all-seed%d-trace.json", cfg.seed)
	}
	path := filepath.Join(cfg.outDir, name)
	data, err := json.MarshalIndent(all, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# results written to %s\n", path)
	return status
}

// runChild runs one workload subprocess, relays every line but the last
// (the JSON result), and returns the parsed result.
func runChild(self string, args []string, stdout, stderr io.Writer) (*workloadResult, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var wr workloadResult
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			last = line
			continue
		}
		if f := strings.Fields(line); len(f) >= 3 && f[1] == "output_sha256" {
			wr.OutputSHA256 = f[2]
		}
		fmt.Fprintln(stdout, line)
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	if last == "" {
		return nil, fmt.Errorf("no result line (%v)", waitErr)
	}
	if err := json.Unmarshal([]byte(last), &wr.result); err != nil {
		return nil, err
	}
	if scanErr != nil {
		return &wr, scanErr
	}
	return &wr, waitErr
}
