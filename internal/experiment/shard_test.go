package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"cord/internal/checkpoint"
	"cord/internal/workload"
)

// shardTestOptions is a campaign small enough to run many times in a test
// yet wide enough to shard across two applications.
func shardTestOptions(t testing.TB) Options {
	t.Helper()
	fft, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	lu, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		BaseSeed:   7,
		Injections: 4,
		Apps:       []workload.App{fft, lu},
		Procs:      2,
	}
}

// fullRanges covers every run of the campaign, one shard per application.
func fullRanges(o Options) []ShardRange {
	o = o.withDefaults()
	var ranges []ShardRange
	for _, a := range o.Apps {
		ranges = append(ranges, ShardRange{App: a.Name, Lo: 0, Hi: o.Injections})
	}
	return ranges
}

// mergeShards executes each shard in order and appends its cells to j.
func mergeShards(t testing.TB, o Options, j *checkpoint.Journal, shards []ShardRange) {
	t.Helper()
	for _, r := range shards {
		cells, err := ExecuteDetectShard(o, r)
		if err != nil {
			t.Fatalf("shard %+v: %v", r, err)
		}
		for _, c := range cells {
			if err := j.Append(c.Key, c.Data); err != nil {
				t.Fatalf("Append(%s): %v", c.Key, err)
			}
		}
	}
}

// TestExecuteDetectShardMatchesCampaignJournal: the distributed contract
// itself — a shard worker given only the campaign configuration produces,
// byte for byte, the journal records a local checkpointed campaign writes
// for the same runs. If this holds, merging remote cells into a journal is
// indistinguishable from having run the campaign locally.
func TestExecuteDetectShardMatchesCampaignJournal(t *testing.T) {
	o := shardTestOptions(t)

	j, err := checkpoint.Open(filepath.Join(t.TempDir(), "local.cordckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	local := o
	local.Checkpoint = j
	if _, err := RunDetection(local); err != nil {
		t.Fatalf("local campaign: %v", err)
	}

	var cells []Cell
	for _, r := range fullRanges(o) {
		got, err := ExecuteDetectShard(o, r)
		if err != nil {
			t.Fatalf("ExecuteDetectShard(%+v): %v", r, err)
		}
		cells = append(cells, got...)
	}
	wantCells := len(o.Apps)*1 + len(o.Apps)*o.Injections
	if len(cells) != wantCells {
		t.Fatalf("shard returned %d cells, want %d", len(cells), wantCells)
	}
	for _, c := range cells {
		var journaled json.RawMessage
		ok, err := j.Lookup(c.Key, &journaled)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", c.Key, err)
		}
		if !ok {
			t.Fatalf("shard cell %s has no local-campaign counterpart", c.Key)
		}
		if !bytes.Equal(journaled, c.Data) {
			t.Errorf("cell %s differs:\n local  %s\n remote %s", c.Key, journaled, c.Data)
		}
	}
}

// TestExecuteDetectShardIdempotent: re-executing the same shard returns
// byte-identical cells in identical order, and shards whose ranges overlap
// it return the same bytes under every key they share. This is the §6
// idempotency rule the server's re-send behavior and the coordinator's
// journal merge rest on.
func TestExecuteDetectShardIdempotent(t *testing.T) {
	o := shardTestOptions(t)
	r := ShardRange{App: "lu", Lo: 1, Hi: 3}
	first, err := ExecuteDetectShard(o, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 {
		t.Fatalf("%d cells, want the count cell and 2 injection cells", len(first))
	}
	keys, err := o.DetectKeys(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range first {
		if c.Key != keys[i] {
			t.Fatalf("cell %d key %s, DetectKeys says %s", i, c.Key, keys[i])
		}
	}
	again, err := ExecuteDetectShard(o, r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatal("re-sent shard returned different cells")
	}

	want := make(map[string][]byte)
	for _, c := range first {
		want[c.Key] = c.Data
	}
	for _, overlap := range []ShardRange{{App: "lu", Lo: 2, Hi: 3}, {App: "lu", Lo: 0, Hi: 4}, {App: "lu", Lo: 1, Hi: 2}} {
		cells, err := ExecuteDetectShard(o, overlap)
		if err != nil {
			t.Fatalf("shard %+v: %v", overlap, err)
		}
		for _, c := range cells {
			if data, ok := want[c.Key]; ok && !bytes.Equal(c.Data, data) {
				t.Errorf("shard %+v cell %s differs from shard %+v's", overlap, c.Key, r)
			}
		}
	}
}

// TestShardMergeEquivalence: the coordinator's merge path — append remote
// cells to a journal, then run the unchanged campaign against it — produces
// results deep-equal to a direct run, with every run a journal hit (nothing
// re-simulated locally).
func TestShardMergeEquivalence(t *testing.T) {
	o := shardTestOptions(t)
	direct, err := RunDetection(o)
	if err != nil {
		t.Fatal(err)
	}

	// Three shards, lu's split mid-app, as a multi-worker dispatch would.
	j, err := checkpoint.Open(filepath.Join(t.TempDir(), "merge.cordckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mergeShards(t, o, j, []ShardRange{
		{App: "fft", Lo: 0, Hi: 4},
		{App: "lu", Lo: 0, Hi: 2},
		{App: "lu", Lo: 2, Hi: 4},
	})

	merged := o
	merged.Checkpoint = j
	res, err := RunDetection(merged)
	if err != nil {
		t.Fatalf("merged campaign: %v", err)
	}
	wantRuns := len(o.Apps) * (1 + o.withDefaults().Injections)
	if j.Hits() != wantRuns {
		t.Fatalf("merged campaign hit the journal %d times, want %d (no local simulation)", j.Hits(), wantRuns)
	}
	a, _ := json.Marshal(direct)
	b, _ := json.Marshal(res)
	if !bytes.Equal(a, b) {
		t.Fatalf("merged results differ from direct run:\n direct %s\n merged %s", a, b)
	}
}

// FuzzShardMerge: fleet merge ≡ single process over random partitions. The
// fuzz bytes cut each application's runs into single-range shards, add
// overlapping and duplicate shards, execute them all in a drawn order at
// Procs 1 or 2, and append every shard's cells to one journal. The campaign
// run against that journal must deep-equal a direct run and take every run
// from the journal.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte{})                                // one shard per app, Procs 1
	f.Add([]byte{1, 3, 0, 1, 1, 2, 2, 3, 1, 0, 2}) // Procs 2, cut shards
	f.Add([]byte{0, 1, 1, 0, 1, 1, 3, 0, 3, 1, 1, 2, 1, 1, 2, 1, 0, 1, 3, 1})
	f.Add([]byte{1, 2, 3, 1, 3, 0, 3, 0, 3, 1, 2, 0, 0, 3, 1, 1, 2, 0, 0})

	o := shardTestOptions(f)
	direct, err := RunDetection(o)
	if err != nil {
		f.Fatal(err)
	}
	inj := o.withDefaults().Injections
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int { // the next fuzz byte mod n; 0 once exhausted
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		o := o
		o.Procs = 1 + next(2)
		var shards []ShardRange
		for _, app := range o.Apps {
			for lo := 0; lo < inj; {
				hi := lo + 1 + next(inj-lo)
				shards = append(shards, ShardRange{App: app.Name, Lo: lo, Hi: hi})
				lo = hi
			}
		}
		for extra := next(4); extra > 0; extra-- {
			lo := next(inj)
			shards = append(shards, ShardRange{App: o.Apps[next(len(o.Apps))].Name, Lo: lo, Hi: lo + 1 + next(inj-lo)})
		}
		for i := len(shards) - 1; i > 0; i-- {
			k := next(i + 1)
			shards[i], shards[k] = shards[k], shards[i]
		}

		j, err := checkpoint.Open(filepath.Join(t.TempDir(), "merge.cordckpt"))
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		mergeShards(t, o, j, shards)
		merged := o
		merged.Checkpoint = j
		res, err := RunDetection(merged)
		if err != nil {
			t.Fatalf("merged campaign: %v", err)
		}
		if want := len(o.Apps) * (1 + inj); j.Hits() != want {
			t.Fatalf("merged campaign hit the journal %d times, want %d", j.Hits(), want)
		}
		if !reflect.DeepEqual(res, direct) {
			t.Fatalf("shards %+v: merged results differ from the direct run:\n direct %+v\n merged %+v", shards, direct, res)
		}
	})
}

// TestOptionsFromMetaRoundTrip: wire metadata reconstructs Options whose
// normalized meta and fingerprint equal the originals — the property that
// lets coordinator and worker agree on run identity without sharing code
// versions, just bytes.
func TestOptionsFromMetaRoundTrip(t *testing.T) {
	o := shardTestOptions(t)
	meta := o.Meta()
	back, err := OptionsFromMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Fingerprint(), o.Fingerprint(); got != want {
		t.Fatalf("fingerprint %s after round trip, want %s", got, want)
	}
	if got, want := back.Meta(), meta; got.BaseSeed != want.BaseSeed || got.Injections != want.Injections {
		t.Fatalf("meta %+v after round trip, want %+v", got, want)
	}
	// Zero fields mean "default", matching the CLI: an all-zero meta is the
	// default campaign.
	dflt, err := OptionsFromMeta(CampaignMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dflt.Fingerprint(), (Options{}).Fingerprint(); got != want {
		t.Fatalf("zero meta fingerprint %s, want default campaign's %s", got, want)
	}
}

// TestOptionsFromMetaRejects: out-of-domain wire metadata fails fast.
func TestOptionsFromMetaRejects(t *testing.T) {
	cases := []CampaignMeta{
		{Scale: -1},
		{Threads: -4},
		{Injections: -2},
		{Threads: 1 << 16},
		{Apps: []string{"nonesuch"}},
		{Apps: []string{"fft", "lu", "fft"}},
	}
	for _, m := range cases {
		if _, err := OptionsFromMeta(m); err == nil {
			t.Errorf("OptionsFromMeta(%+v): expected error", m)
		}
	}
}

// TestExecuteDetectShardRejectsBadSpecs: out-of-domain shards are ErrBadShard
// (the endpoint's 400), from ExecuteDetectShard and DetectKeys alike, not
// panics or silent truncation.
func TestExecuteDetectShardRejectsBadSpecs(t *testing.T) {
	o := shardTestOptions(t)
	cases := []ShardRange{
		{},
		{App: "nonesuch", Lo: 0, Hi: 1},
		{App: "fft", Lo: -1, Hi: 1},
		{App: "fft", Lo: 0, Hi: 5}, // Injections is 4
		{App: "fft", Lo: 2, Hi: 2},
		{App: "fft", Lo: 3, Hi: 1},
	}
	for i, r := range cases {
		if _, err := ExecuteDetectShard(o, r); !errors.Is(err, ErrBadShard) {
			t.Errorf("case %d: error %v, want ErrBadShard", i, err)
		}
		if _, err := o.DetectKeys(r); !errors.Is(err, ErrBadShard) {
			t.Errorf("case %d: DetectKeys error %v, want ErrBadShard", i, err)
		}
	}
}

// TestExecuteDetectShardInterrupt: a pre-closed Interrupt drains the shard
// before any run dispatches, surfacing ErrInterrupted like every other
// campaign entry point.
func TestExecuteDetectShardInterrupt(t *testing.T) {
	o := shardTestOptions(t)
	stop := make(chan struct{})
	close(stop)
	o.Interrupt = stop
	o.Procs = 1
	if _, err := ExecuteDetectShard(o, fullRanges(o)[0]); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error %v, want ErrInterrupted", err)
	}
}
