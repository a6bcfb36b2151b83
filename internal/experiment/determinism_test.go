package experiment

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"cord/internal/workload"
)

// twoAppOpts is the ISSUE's determinism fixture: a small two-app campaign.
func twoAppOpts(procs int) Options {
	apps := []workload.App{}
	for _, name := range []string{"raytrace", "lu"} {
		a, _ := workload.ByName(name)
		apps = append(apps, a)
	}
	return Options{Injections: 4, Apps: apps, BaseSeed: 77, Procs: procs}
}

// renderAll renders every detection figure into one byte stream.
func renderAll(t *testing.T, res *DetectionResults) string {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range []Figure{
		res.Fig10(), res.Fig12(), res.Fig13(), res.Fig14(), res.Fig15(), res.Fig16(), res.Fig17(),
	} {
		if err := f.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestParallelCampaignBitIdentical: the same campaign produces byte-identical
// aggregates, figures, and progress output at Procs: 1 and Procs: 4 — the
// worker pool must not leak scheduling into results.
func TestParallelCampaignBitIdentical(t *testing.T) {
	run := func(procs int) (*DetectionResults, string, string) {
		o := twoAppOpts(procs)
		var progress bytes.Buffer
		o.Progress = &progress
		res, err := RunDetection(o)
		if err != nil {
			t.Fatal(err)
		}
		return res, renderAll(t, res), progress.String()
	}
	serial, serialFigs, serialProg := run(1)
	par, parFigs, parProg := run(4)

	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("AppDetection aggregates differ between Procs=1 and Procs=4:\n%+v\nvs\n%+v", serial, par)
	}
	if serialFigs != parFigs {
		t.Fatalf("figure output differs between Procs=1 and Procs=4:\n%s\nvs\n%s", serialFigs, parFigs)
	}
	if serialProg != parProg {
		t.Fatalf("progress output differs between Procs=1 and Procs=4:\n%s\nvs\n%s", serialProg, parProg)
	}
}

// TestParallelTablesBitIdentical covers the remaining campaign entry points:
// Table 1 sizing, overhead, replay verification, and the directory extension
// must all be worker-count independent.
func TestParallelTablesBitIdentical(t *testing.T) {
	s, p := twoAppOpts(1), twoAppOpts(4)

	t1s, err := RunTable1(s)
	if err != nil {
		t.Fatal(err)
	}
	t1p, err := RunTable1(p)
	if err != nil {
		t.Fatal(err)
	}
	// Mem images are not part of the row; rows must match exactly.
	if !reflect.DeepEqual(t1s, t1p) {
		t.Fatalf("Table1 rows differ:\n%+v\nvs\n%+v", t1s, t1p)
	}

	ovS, figS, err := RunOverhead(s)
	if err != nil {
		t.Fatal(err)
	}
	ovP, figP, err := RunOverhead(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ovS, ovP) || !reflect.DeepEqual(figS, figP) {
		t.Fatalf("overhead rows differ:\n%+v\nvs\n%+v", ovS, ovP)
	}

	rpS, err := RunReplayCheck(s)
	if err != nil {
		t.Fatal(err)
	}
	rpP, err := RunReplayCheck(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rpS, rpP) {
		t.Fatalf("replay rows differ:\n%+v\nvs\n%+v", rpS, rpP)
	}

	dirS, err := RunDirectory(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	dirP, err := RunDirectory(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dirS, dirP) {
		t.Fatalf("directory rows differ:\n%+v\nvs\n%+v", dirS, dirP)
	}
}

// TestJSONArtifactsBitIdentical: the encoded BENCH_*.json artifacts — the
// shipped machine-readable form, campaign metadata included — are
// byte-identical at Procs: 1 and Procs: 4. This is the export-layer
// counterpart of the figure-rendering checks above: worker fan-out must not
// leak into artifacts, or they could not serve as diffable baselines.
func TestJSONArtifactsBitIdentical(t *testing.T) {
	encodeAll := func(procs int) map[string][]byte {
		o := twoAppOpts(procs)
		meta := o.Meta()

		res, err := RunDetection(o)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := RunTable1(o)
		if err != nil {
			t.Fatal(err)
		}
		ovRows, ovFig, err := RunOverhead(o)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := RunReplayCheck(o)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := RunDirectory(o, 8)
		if err != nil {
			t.Fatal(err)
		}

		arts := []Artifact{
			Table1Artifact(t1, meta),
			FigureArtifact(AreaFigure(), meta),
			OverheadArtifact(ovRows, ovFig, meta),
			ReplayArtifact(rp, meta),
			DirectoryArtifact(dir, 8, meta),
		}
		for _, f := range []Figure{res.Fig10(), res.Fig12(), res.Fig16()} {
			arts = append(arts, FigureArtifact(f, meta))
		}
		out := make(map[string][]byte, len(arts))
		for _, a := range arts {
			b, err := a.Encode()
			if err != nil {
				t.Fatalf("%s: %v", a.ID, err)
			}
			out[a.ID] = b
		}
		return out
	}

	serial := encodeAll(1)
	par := encodeAll(4)
	if len(serial) != len(par) {
		t.Fatalf("artifact sets differ: %d vs %d", len(serial), len(par))
	}
	for id, b := range serial {
		if !bytes.Equal(b, par[id]) {
			t.Errorf("artifact %s is not byte-identical between Procs=1 and Procs=4:\n%s\nvs\n%s",
				id, b, par[id])
		}
	}
}

func TestForEach(t *testing.T) {
	for _, procs := range []int{1, 4, 100} {
		var sum atomic.Int64
		got := make([]int, 50)
		if err := (Options{Procs: procs}).forEach(len(got), unknownApp, func(i int) error {
			got[i] = i * i
			sum.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum.Load() != 50 {
			t.Fatalf("procs=%d: ran %d of 50", procs, sum.Load())
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("procs=%d: slot %d = %d", procs, i, v)
			}
		}
	}
	// n = 0 is a no-op.
	if err := (Options{Procs: 4}).forEach(0, unknownApp, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// unknownApp names no application, so every run costs the same and forEach
// keeps index order.
func unknownApp(int) string { return "" }

// TestForEachHeaviestFirst: forEach hands indices out heaviest application
// first, by the fleet's cost rule (one worker makes the dispatch order
// visible), and equal costs in index order.
func TestForEachHeaviestFirst(t *testing.T) {
	apps := []string{"lu", "water-n2", "fft", "water-sp", "water-n2"}
	for _, tc := range []struct {
		app  func(int) string
		want []int
	}{
		{func(i int) string { return apps[i] }, []int{1, 4, 2, 0, 3}},
		{unknownApp, []int{0, 1, 2, 3, 4}},
	} {
		var order []int
		if err := (Options{Procs: 1}).forEach(len(apps), tc.app, func(i int) error {
			order = append(order, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(order, tc.want) {
			t.Fatalf("dispatch order %v, want %v", order, tc.want)
		}
	}
}

// TestForEachErrorCancels: an error stops the fan-out promptly. In parallel
// every call but index 3's blocks until index 3 has failed, so the workers
// cannot drain the list while the one that drew index 3 waits to be
// scheduled: the three other workers hold indices 0–2 when it fails.
func TestForEachErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		var ran atomic.Int64
		failed := make(chan struct{})
		err := (Options{Procs: procs}).forEach(1000, unknownApp, func(i int) error {
			ran.Add(1)
			if i == 3 {
				close(failed)
				return boom
			}
			if procs > 1 {
				<-failed
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("procs=%d: err = %v", procs, err)
		}
		// Cancellation is prompt: nowhere near the full list runs.
		if ran.Load() > 100 {
			t.Fatalf("procs=%d: %d calls ran after error", procs, ran.Load())
		}
	}
}

func TestSyncWriter(t *testing.T) {
	if newSyncWriter(nil) != nil {
		t.Fatal("nil writer must stay nil")
	}
	var buf bytes.Buffer
	w := newSyncWriter(&buf)
	if newSyncWriter(w) != w {
		t.Fatal("double wrap")
	}
	if _, err := w.Write([]byte("line\n")); err != nil || buf.String() != "line\n" {
		t.Fatalf("write: %v %q", err, buf.String())
	}
}
