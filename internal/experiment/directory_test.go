package experiment

import (
	"bytes"
	"strings"
	"testing"
	"text/tabwriter"
)

func TestRunDirectory(t *testing.T) {
	rows, err := RunDirectory(smallOpts(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if !r.RacesMatch {
			t.Fatalf("%s: directory and snoop detection diverged", r.App)
		}
		if r.Requests == 0 {
			t.Fatalf("%s: no traffic", r.App)
		}
		if r.SnoopMessages != r.Requests*7 {
			t.Fatalf("%s: snoop messages %d != requests*7", r.App, r.SnoopMessages)
		}
		if r.Forwards >= r.SnoopMessages {
			t.Fatalf("%s: forwards (%d) not below broadcast (%d)", r.App, r.Forwards, r.SnoopMessages)
		}
	}
	var buf bytes.Buffer
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	RenderDirectory(rows, 8, tw)
	tw.Flush()
	if !strings.Contains(buf.String(), "identical") {
		t.Fatal("render missing detection status")
	}
}

// TestRunDirectory65Procs: the directory keeps no per-processor state, so
// the extension runs past 64 processors.
func TestRunDirectory65Procs(t *testing.T) {
	o := smallOpts()
	o.Apps = o.Apps[:1]
	rows, err := RunDirectory(o, 65)
	if err != nil {
		t.Fatal(err)
	}
	if r := rows[0]; r.Forwards == 0 || r.SnoopMessages != r.Requests*64 {
		t.Fatalf("%s at 65 procs: %+v", r.App, r)
	}
}

// TestCampaignDeterminism: the same options produce the same figures.
func TestCampaignDeterminism(t *testing.T) {
	a, err := RunDetection(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDetection(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Apps {
		if a.Apps[i].Manifested != b.Apps[i].Manifested ||
			a.Apps[i].Injected != b.Apps[i].Injected {
			t.Fatalf("%s: campaign not deterministic", a.Apps[i].App)
		}
		for _, cfg := range a.Configs {
			if a.Apps[i].Problems[cfg] != b.Apps[i].Problems[cfg] ||
				a.Apps[i].Races[cfg] != b.Apps[i].Races[cfg] {
				t.Fatalf("%s/%s: counts differ between identical campaigns", a.Apps[i].App, cfg)
			}
		}
	}
}
