package platformflag

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
