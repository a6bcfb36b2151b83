package experiment

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cord/internal/workload"
)

// testMeta is a small campaign stamp for artifact fixtures.
func testMeta() CampaignMeta {
	return CampaignMeta{BaseSeed: 77, Scale: 1, Threads: 4, Injections: 4,
		Apps: []string{"raytrace", "lu"}}
}

// testArtifacts builds one fixture of every artifact kind, including a NaN
// cell (the empty-denominator case Percent renders as "-").
func testArtifacts() []Artifact {
	meta := testMeta()
	fig := Figure{
		ID:      "fig12",
		Title:   "test figure",
		Columns: []string{"detected", "missed"},
		Rows: []Row{
			{Label: "raytrace", Values: []float64{0.75, 0.25}},
			{Label: "lu", Values: []float64{math.NaN(), 1}},
		},
		Notes: []string{"fixture"},
	}
	t1 := []Table1Row{{App: "raytrace", PaperInput: "teapot", Accesses: 2514,
		Instructions: 3697, SyncInstances: 76, Footprint: 4581}}
	ov := []OverheadRow{{App: "lu", BaselineCycles: 1000, CordCycles: 1004,
		Relative: 1.004, CheckRequests: 12, MemTsBroadcasts: 3, LogBytes: 96}}
	rp := []ReplayRow{{App: "raytrace", Accesses: 2514, LogEntries: 40,
		LogBytes: 320, Match: true}}
	dir := []DirectoryRow{{App: "lu", Requests: 500, Forwards: 120,
		SnoopMessages: 7500, MemTsMessages: 44, RacesMatch: true}}
	ovFig := Figure{ID: "fig11", Title: "overhead", Columns: []string{"relative"},
		Rows: []Row{{Label: "lu", Values: []float64{1.004}}}}
	return []Artifact{
		FigureArtifact(fig, meta),
		Table1Artifact(t1, meta),
		OverheadArtifact(ov, ovFig, meta),
		ReplayArtifact(rp, meta),
		DirectoryArtifact(dir, 16, meta),
	}
}

// TestArtifactRoundTrip: encode → decode → re-encode is byte-identical for
// every artifact kind, including figures with NaN cells (which travel as
// null). This is what makes BENCH_*.json files stable baselines.
func TestArtifactRoundTrip(t *testing.T) {
	for _, a := range testArtifacts() {
		first, err := a.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", a.ID, err)
		}
		back, err := DecodeArtifact(first)
		if err != nil {
			t.Fatalf("%s: decode: %v", a.ID, err)
		}
		second, err := back.Encode()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", a.ID, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: re-encode is not byte-identical:\n%s\nvs\n%s", a.ID, first, second)
		}
	}
}

// TestArtifactNaNTravelsAsNull: JSON has no NaN literal; the encoding must
// map it to null and decoding must restore NaN, not zero.
func TestArtifactNaNTravelsAsNull(t *testing.T) {
	a := testArtifacts()[0] // the figure fixture with a NaN cell
	b, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte("null")) {
		t.Fatalf("NaN cell did not encode as null:\n%s", b)
	}
	back, err := DecodeArtifact(b)
	if err != nil {
		t.Fatal(err)
	}
	if v := back.Figure.Rows[1].Values[0]; !math.IsNaN(v) {
		t.Fatalf("NaN cell decoded as %v, want NaN", v)
	}
}

// TestDecodeArtifactRejectsUnknownSchema: readers must refuse versions they
// do not understand instead of mis-parsing them.
func TestDecodeArtifactRejectsUnknownSchema(t *testing.T) {
	a := testArtifacts()[0]
	a.Schema = SchemaVersion + 1
	b, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeArtifact(b); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("decode of future schema: err = %v, want schema rejection", err)
	}
	if _, err := DecodeArtifact([]byte("{not json")); err == nil {
		t.Fatal("decode of malformed bytes succeeded")
	}
}

// TestWriteReadArtifact: the on-disk round trip through the BENCH_<id>.json
// naming convention.
func TestWriteReadArtifact(t *testing.T) {
	dir := t.TempDir()
	a := testArtifacts()[1]
	path, err := WriteArtifact(dir, a)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_table1.json"); path != want {
		t.Fatalf("path = %q, want %q", path, want)
	}
	back, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := a.Encode()
	b2, _ := back.Encode()
	if !bytes.Equal(b1, b2) {
		t.Fatal("artifact read back differs from what was written")
	}
	if _, err := ReadArtifact(filepath.Join(dir, "BENCH_missing.json")); err == nil {
		t.Fatal("reading a missing artifact succeeded")
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_bad.json"), []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(filepath.Join(dir, "BENCH_bad.json")); err == nil {
		t.Fatal("reading a malformed artifact succeeded")
	}
}

// TestOptionsMeta: the campaign stamp applies defaults and lists apps in
// campaign order, and deliberately carries no host worker count.
func TestOptionsMeta(t *testing.T) {
	m := twoAppOpts(1).Meta()
	m4 := twoAppOpts(4).Meta()
	if m.BaseSeed != 77 || m.Injections != 4 {
		t.Fatalf("meta = %+v", m)
	}
	if m.Scale <= 0 || m.Threads <= 0 {
		t.Fatalf("defaults not applied: %+v", m)
	}
	if len(m.Apps) != 2 || m.Apps[0] != "raytrace" || m.Apps[1] != "lu" {
		t.Fatalf("apps = %v", m.Apps)
	}
	// Different Procs, same campaign: the stamps (and therefore the encoded
	// artifacts) must be identical.
	if m.BaseSeed != m4.BaseSeed || m.Scale != m4.Scale || m.Threads != m4.Threads ||
		m.Injections != m4.Injections {
		t.Fatalf("Procs leaked into campaign meta: %+v vs %+v", m, m4)
	}
}

// TestAppAccessesMatchTable1Golden pins workload.App.Accesses — the fleet
// coordinator's a-priori cost order — to the committed Table 1 golden, so
// the two cannot drift apart.
func TestAppAccessesMatchTable1Golden(t *testing.T) {
	a, err := ReadArtifact(filepath.Join("..", "..", "bench", "BENCH_table1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Campaign.Scale != 1 || a.Campaign.Threads != 4 {
		t.Fatalf("golden is scale %d, %d threads; App.Accesses is defined at scale 1, 4 threads",
			a.Campaign.Scale, a.Campaign.Threads)
	}
	apps := workload.All()
	if len(a.Table1) != len(apps) {
		t.Fatalf("golden has %d Table 1 rows, workload.All() %d apps", len(a.Table1), len(apps))
	}
	for i, row := range a.Table1 {
		if row.App != apps[i].Name || row.Accesses != apps[i].Accesses {
			t.Errorf("row %d: golden %s accesses %d, workload.All() %s Accesses %d",
				i, row.App, row.Accesses, apps[i].Name, apps[i].Accesses)
		}
	}
}
