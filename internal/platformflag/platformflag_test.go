package platformflag

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/network"
)

func resolve(t *testing.T, args []string, app string, ranks int) (network.Platform, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.Resolve(app, ranks)
}

func TestResolveDefaultIsCalibratedTestbed(t *testing.T) {
	p, err := resolve(t, nil, "sweep3d", 16)
	if err != nil {
		t.Fatal(err)
	}
	want := network.TestbedFor("sweep3d", 16)
	if p.Buses != want.Buses || p.Inter != want.Inter || p.Nodes != 16 {
		t.Fatalf("default platform %+v, want %+v", p, want)
	}
}

func TestResolvePresetAndOverrides(t *testing.T) {
	p, err := resolve(t, []string{"-preset", "marenostrum-4x", "-map", "rr", "-bw", "500", "-lat", "2", "-buses", "7"}, "cg", 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes != 4 || p.Mapping.Kind != network.MapRoundRobin {
		t.Fatalf("preset/mapping not applied: %+v", p)
	}
	if p.Inter.BandwidthMBps != 500 || p.Inter.LatencySec != 2e-6 || p.Buses != 7 {
		t.Fatalf("overrides not applied: %+v", p)
	}
	// Overrides must not touch the intra link.
	if p.Intra.BandwidthMBps != 6000 {
		t.Fatalf("intra link clobbered: %+v", p.Intra)
	}
}

func TestResolvePlatformFileWinsOverPreset(t *testing.T) {
	plat, err := network.PlatformPreset("fatnode-smp", 32)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plat.json")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.WriteJSON(fh); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	p, err := resolve(t, []string{"-platform", path, "-preset", "gige"}, "cg", 32)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, plat) || p.Nodes != 2 {
		t.Fatalf("file not loaded: %+v", p)
	}
}

func TestResolveRejects(t *testing.T) {
	if _, err := resolve(t, []string{"-preset", "warp-drive"}, "cg", 4); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := resolve(t, []string{"-map", "diagonal"}, "cg", 4); err == nil {
		t.Fatal("bad mapping accepted")
	}
	if _, err := resolve(t, []string{"-nodes", "3", "-map", "0,0,9,0"}, "cg", 4); err == nil {
		t.Fatal("out-of-range explicit mapping accepted")
	}
}

// TestResolveDegradationFlags: each of the six degradation flags lands
// in the platform's fault-injection spec, -stragglers alone defaults the
// factor to 2, and an out-of-range value fails Resolve.
func TestResolveDegradationFlags(t *testing.T) {
	p, err := resolve(t, []string{"-preset", "marenostrum-4x", "-derate", "0.5", "-jitter", "0.2",
		"-stragglers", "3", "-straggler-factor", "4", "-link-down", "2", "-fault-seed", "7"}, "cg", 16)
	if err != nil {
		t.Fatal(err)
	}
	want := faults.Spec{DerateInter: 0.5, JitterFrac: 0.2, Stragglers: 3, StragglerFactor: 4, LinkDown: 2, Seed: 7}
	if !reflect.DeepEqual(p.Degradations, want) {
		t.Fatalf("degradations %+v, want %+v", p.Degradations, want)
	}
	p, err = resolve(t, []string{"-stragglers", "2"}, "cg", 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := (faults.Spec{Stragglers: 2, StragglerFactor: 2}); !reflect.DeepEqual(p.Degradations, want) {
		t.Fatalf("-stragglers alone: degradations %+v, want %+v", p.Degradations, want)
	}
	if _, err := resolve(t, []string{"-derate", "2"}, "cg", 8); err == nil || !strings.Contains(err.Error(), "derate_inter 2") {
		t.Fatalf("-derate 2: err %v, want a derate_inter range error", err)
	}
}

// TestResolveDegradationFlagsLayerOnFile: a platform file's own
// degradation fields survive unless a flag overrides them.
func TestResolveDegradationFlagsLayerOnFile(t *testing.T) {
	plat, err := network.PlatformPreset("marenostrum-4x", 16)
	if err != nil {
		t.Fatal(err)
	}
	plat.Degradations = faults.Spec{DerateInter: 0.25, JitterFrac: 0.1, StragglerFactor: 3, Stragglers: 1, LinkDown: 1, Seed: 9}
	path := filepath.Join(t.TempDir(), "plat.json")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.WriteJSON(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := resolve(t, []string{"-platform", path}, "cg", 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Degradations, plat.Degradations) {
		t.Fatalf("file degradations %+v, want %+v", p.Degradations, plat.Degradations)
	}
	// -stragglers keeps the file's factor instead of defaulting it.
	p, err = resolve(t, []string{"-platform", path, "-jitter", "0.3", "-stragglers", "2"}, "cg", 16)
	if err != nil {
		t.Fatal(err)
	}
	want := plat.Degradations
	want.JitterFrac, want.Stragglers = 0.3, 2
	if !reflect.DeepEqual(p.Degradations, want) {
		t.Fatalf("overridden degradations %+v, want %+v", p.Degradations, want)
	}
}

func TestDumpRoundTrips(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-preset", "marenostrum-4x", "-dump-platform"}); err != nil {
		t.Fatal(err)
	}
	if !f.DumpRequested() {
		t.Fatal("dump flag lost")
	}
	p, err := f.Resolve("cg", 8)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := f.Dump(&sb, p); err != nil {
		t.Fatal(err)
	}
	got, err := network.ReadAnyPlatform(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != p.Nodes || got.Intra != p.Intra {
		t.Fatalf("dump round trip: %+v vs %+v", got, p)
	}
}
