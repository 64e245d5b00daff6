// Command simdctl is the command-line client of a running simd daemon.
// It speaks the same HTTP API the Go client package wraps, adding the
// operational knobs a flaky network or a restarting daemon needs:
// transparent retries with exponential backoff and full jitter,
// honoring the server's Retry-After on 429/502/503.
//
// Examples:
//
//	simdctl -addr http://127.0.0.1:8080 health
//	simdctl apps
//	simdctl -retries 5 scenario spec.json      # streamed point table
//	simdctl -retries 5 -json scenario spec.json
//	simdctl jobs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	retries := flag.Int("retries", 3, "how many times to retry a failed request (transport errors and 429/502/503); 0 disables")
	retryBase := flag.Duration("retry-base-wait", client.DefaultRetryBaseWait, "exponential-backoff seed between retries (full jitter)")
	retryMax := flag.Duration("retry-max-wait", client.DefaultRetryMaxWait, "cap on a single backoff wait; the server's Retry-After is always honored as a floor")
	timeout := flag.Duration("timeout", 0, "overall deadline for the command (0 = none)")
	asJSON := flag.Bool("json", false, "with scenario: print the raw result JSON instead of the streamed point table")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simdctl [flags] health|apps|platforms|jobs|metrics|cluster status|scenario <spec.json>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	c := client.New(*addr, nil).WithRetry(client.RetryPolicy{
		Retries:  *retries,
		BaseWait: *retryBase,
		MaxWait:  *retryMax,
	})

	var err error
	switch cmd := flag.Arg(0); cmd {
	case "health":
		var h service.Health
		if h, err = c.Health(ctx); err == nil {
			err = printJSON(h)
		}
	case "apps":
		var list []service.AppInfo
		if list, err = c.Apps(ctx); err == nil {
			err = printJSON(list)
		}
	case "platforms":
		var list []service.PlatformInfo
		if list, err = c.Platforms(ctx); err == nil {
			err = printJSON(list)
		}
	case "jobs":
		var list []service.Status
		if list, err = c.Jobs(ctx); err == nil {
			err = printJSON(list)
		}
	case "metrics":
		var raw []byte
		if raw, err = c.MetricsText(ctx); err == nil {
			_, err = os.Stdout.Write(raw)
		}
	case "scenario":
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "simdctl: scenario needs a spec file")
			os.Exit(2)
		}
		err = runScenario(ctx, c, flag.Arg(1), *asJSON)
	case "cluster":
		if flag.NArg() != 2 || flag.Arg(1) != "status" {
			fmt.Fprintln(os.Stderr, "simdctl: usage: cluster status")
			os.Exit(2)
		}
		var st cluster.Status
		if st, err = c.ClusterStatus(ctx); err == nil {
			err = printJSON(st)
		}
	default:
		fmt.Fprintf(os.Stderr, "simdctl: unknown command %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simdctl: %v\n", err)
		os.Exit(1)
	}
}

// runScenario submits a spec file. The default path streams (NDJSON on
// the wire, the incremental point table on stdout); -json runs the
// batch endpoint and prints its exact payload.
func runScenario(ctx context.Context, c *client.Client, path string, asJSON bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var req service.ScenarioRequest
	if err := service.DecodeStrict(data, &req); err != nil {
		return fmt.Errorf("scenario file %s: %w", path, err)
	}
	if asJSON {
		raw, err := c.ScenarioRaw(ctx, req)
		if err != nil {
			return err
		}
		os.Stdout.Write(raw)
		fmt.Println()
		return nil
	}
	st, err := c.ScenarioStream(ctx, req)
	if err != nil {
		return err
	}
	defer st.Close()
	hdr := st.Header()
	p, err := core.NewScenarioPrinter(os.Stdout, &hdr)
	if err != nil {
		return err
	}
	for {
		pt, err := st.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := p.Point(pt); err != nil {
			return err
		}
	}
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
