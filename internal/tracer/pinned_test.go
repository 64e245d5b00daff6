package tracer_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/trace"
	"repro/internal/tracer"
)

// TestPinnedTraceDigests pins the digest of every application's base,
// overlap-real and overlap-ideal trace at 8 ranks and 4 chunks, and of
// overlap-real at 3 chunks. The oracle tests read the same event log as
// the builders, so a log that loses or alters a field passes them; these
// literals were taken from the 16-byte event log the packed one replaced.
func TestPinnedTraceDigests(t *testing.T) {
	want := map[string][4]string{
		"sweep3d":   {"sha256:9d248bed54e1117d9f2ee475354d00603e126f70d171343e1b4f1d81e654a435", "sha256:8ca1cf7a9791e0397636b4fd58fd03f16c6c538261fb99dde415afcffc17e5ab", "sha256:901c387b115735badd1fe1983ab24316850fbdd7597d595c57a65fee89756129", "sha256:b57aae87372f96de7d4932b2cb21aa8f8f1340294ea207e53d1796dac7b89719"},
		"pop":       {"sha256:744b33dc932556d992b887587d0fd13290a8fe13e847238a8a3223b4b4335b5f", "sha256:398d79200b16bdc73c7aeee2acc496a35a94769cf8a125e32b4024d778b45e9a", "sha256:78b66f79d914f3d01ddfb31353dfb2008cdbaeade5cb1e24f283cfb6aa5bb502", "sha256:40bbfc7c6a64791b22019d3173922cc95cbb58bdf3dbee771a3f0bf213c10833"},
		"alya":      {"sha256:a1168e418ccfbb233a46b1546e189d8deb0f636869b6bec43c777689768ae473", "sha256:8cf78ea021e558c467ee10bc24aa7e66eef4cb2f84b1509ca7a62d0337aaa718", "sha256:aad6ece0a0a9f0c806f2923d051fa83a0760529bf90c7e7718d35fcd174c42b5", "sha256:8cf78ea021e558c467ee10bc24aa7e66eef4cb2f84b1509ca7a62d0337aaa718"},
		"specfem3d": {"sha256:feb051d9143067431da02a12a636a9f1f8c18b9033708b9bffb26d469124b263", "sha256:a98db9cb4c40c8b660fb4975c7db62b0a4c1cd5e025075949181016387df5c47", "sha256:0660baf3d6b010b9257c674eddef923d4bb91241f03deea69f9ac01751cc1f61", "sha256:6713c644d82e8bd1d49b39371c923b146c087d6fbc227bfbe0ba0403a86f27b9"},
		"bt":        {"sha256:c8f5984397c7de98e5cdf9adf0ea18737c2bf14f7ac9270c93cef1ec8f8e8730", "sha256:d2be0c1b67014765f75c022a63fd4b60ec9aa91ad9c71ff2f06d466600ccc2fe", "sha256:ded212a755919ff90ec94b8c93c27087a984129e16ebe2fca626cdabd856e3cd", "sha256:26406aa2a89d7a7b6dc7878207e0bbef1d407df747e20f7e2a44bb34861ce4a4"},
		"cg":        {"sha256:71474d9d1b42beaa4c4cebe9a46933aa41a9a899b141f9dce125de7f5e07754e", "sha256:8654b92118c90b930f2e770b420df6411151b186bda904a4367f30a6ba4cb728", "sha256:010f60aba3ce8c5e8354df80f108d1f04054dceda7c53f32a1718720876bbabe", "sha256:b0c7388e0e34a4b3952795ee4954309d52db1c571df00aac42948501fc65309c"},
	}
	labels := [4]string{"base", "overlap-real k=4", "overlap-ideal k=4", "overlap-real k=3"}
	entries := apps.All(8)
	if len(entries) != len(want) {
		t.Fatalf("%d apps, %d pinned", len(entries), len(want))
	}
	for _, entry := range entries {
		name := entry.App.Name
		run, err := tracer.Trace(name, 8, tracer.DefaultConfig(), entry.App.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		v4, v3 := run.WithChunks(4), run.WithChunks(3)
		for i, tr := range []*trace.Trace{v4.BaseTrace(), v4.OverlapReal(), v4.OverlapIdeal(), v3.OverlapReal()} {
			d, err := trace.Digest(tr)
			if err != nil {
				t.Fatal(err)
			}
			if d != want[name][i] {
				t.Errorf("%s %s: digest %s, pinned %s", name, labels[i], d, want[name][i])
			}
		}
	}
}

// TestPackedLogBytesPerEvent: every application's packed log holds at
// most 8.5 bytes per event at 16 ranks, escape words and block slack
// included (16-byte events held 16).
func TestPackedLogBytesPerEvent(t *testing.T) {
	for _, entry := range apps.All(16) {
		run, err := tracer.Trace(entry.App.Name, 16, tracer.DefaultConfig(), entry.App.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		bytes, events := 0, 0
		for _, log := range run.Logs {
			bytes += log.PackedBytes()
			events += log.Len()
		}
		if per := float64(bytes) / float64(events); per > 8.5 {
			t.Errorf("%s/16: %.3f bytes per event over %d events, want at most 8.5", entry.App.Name, per, events)
		} else {
			t.Logf("%s/16: %.3f bytes per event over %d events", entry.App.Name, per, events)
		}
	}
}
