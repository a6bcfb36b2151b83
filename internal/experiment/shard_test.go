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
// yet wide enough to exercise multi-app sharding.
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

// fullSpec covers every run of the campaign in one shard.
func fullSpec(o Options) ShardSpec {
	o = o.withDefaults()
	var spec ShardSpec
	for _, a := range o.Apps {
		spec.Ranges = append(spec.Ranges, ShardRange{App: a.Name, Lo: 0, Hi: o.Injections})
	}
	return spec
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

	cells, _, err := ExecuteDetectShard(o, fullSpec(o))
	if err != nil {
		t.Fatalf("ExecuteDetectShard: %v", err)
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

// TestExecuteDetectShardIdempotent: re-executing the same shard — and
// spec-equal shards written with different range order and overlaps —
// returns byte-identical cells in identical order. This is the §6
// idempotency rule the server's re-send behavior rests on.
func TestExecuteDetectShardIdempotent(t *testing.T) {
	o := shardTestOptions(t)
	spec := ShardSpec{Ranges: []ShardRange{
		{App: "lu", Lo: 1, Hi: 3},
		{App: "fft", Lo: 0, Hi: 2},
	}}
	// Same run set, scrambled order plus an overlapping range.
	equiv := ShardSpec{Ranges: []ShardRange{
		{App: "fft", Lo: 1, Hi: 2},
		{App: "lu", Lo: 2, Hi: 3},
		{App: "lu", Lo: 1, Hi: 3},
		{App: "fft", Lo: 0, Hi: 2},
	}}
	first, runs, err := ExecuteDetectShard(o, spec)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 4 {
		t.Fatalf("runs = %d, want 4", runs)
	}
	for name, again := range map[string]ShardSpec{"re-sent": spec, "equivalent": equiv} {
		got, runs, err := ExecuteDetectShard(o, again)
		if err != nil {
			t.Fatalf("%s shard: %v", name, err)
		}
		if runs != 4 {
			t.Fatalf("%s shard: runs = %d, want 4", name, runs)
		}
		if len(got) != len(first) {
			t.Fatalf("%s shard: %d cells, want %d", name, len(got), len(first))
		}
		for i := range got {
			if got[i].Key != first[i].Key || !bytes.Equal(got[i].Data, first[i].Data) {
				t.Errorf("%s shard cell %d differs: %s vs %s", name, i, got[i].Key, first[i].Key)
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

	// Two shards split mid-app, as a two-worker dispatch would.
	specs := []ShardSpec{
		{Ranges: []ShardRange{{App: "fft", Lo: 0, Hi: 4}, {App: "lu", Lo: 0, Hi: 2}}},
		{Ranges: []ShardRange{{App: "lu", Lo: 2, Hi: 4}}},
	}
	j, err := checkpoint.Open(filepath.Join(t.TempDir(), "merge.cordckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, spec := range specs {
		cells, _, err := ExecuteDetectShard(o, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if err := j.Append(c.Key, c.Data); err != nil {
				t.Fatalf("Append(%s): %v", c.Key, err)
			}
		}
	}

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
// fuzz bytes cut each application's runs into ranges, add overlapping and
// duplicate ranges, deal the ranges to up to four shards in a drawn order,
// execute the shards in a drawn order at Procs 1 or 2, and append every
// shard's cells to one journal. The campaign run against that journal must
// deep-equal a direct run and take every run from the journal.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte{})                                // one shard, one range per app, Procs 1
	f.Add([]byte{1, 3, 0, 1, 1, 2, 2, 3, 1, 0, 2}) // four shards, Procs 2
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
		shards := make([]ShardSpec, 1+next(4))
		deal := func(r ShardRange) {
			s := &shards[next(len(shards))]
			s.Ranges = append(s.Ranges, r)
		}
		for _, app := range o.Apps {
			for lo := 0; lo < inj; {
				hi := lo + 1 + next(inj-lo)
				deal(ShardRange{App: app.Name, Lo: lo, Hi: hi})
				lo = hi
			}
		}
		for extra := next(4); extra > 0; extra-- {
			lo := next(inj)
			deal(ShardRange{App: o.Apps[next(len(o.Apps))].Name, Lo: lo, Hi: lo + 1 + next(inj-lo)})
		}
		shuffle := func(n int, swap func(i, j int)) {
			for i := n - 1; i > 0; i-- {
				swap(i, next(i+1))
			}
		}
		for _, s := range shards {
			shuffle(len(s.Ranges), func(i, j int) { s.Ranges[i], s.Ranges[j] = s.Ranges[j], s.Ranges[i] })
		}
		shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })

		j, err := checkpoint.Open(filepath.Join(t.TempDir(), "merge.cordckpt"))
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for _, spec := range shards {
			if len(spec.Ranges) == 0 {
				continue
			}
			cells, _, err := ExecuteDetectShard(o, spec)
			if err != nil {
				t.Fatalf("shard %+v: %v", spec, err)
			}
			for _, c := range cells {
				if err := j.Append(c.Key, c.Data); err != nil {
					t.Fatalf("Append(%s): %v", c.Key, err)
				}
			}
		}
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
	}
	for _, m := range cases {
		if _, err := OptionsFromMeta(m); err == nil {
			t.Errorf("OptionsFromMeta(%+v): expected error", m)
		}
	}
}

// TestExecuteDetectShardRejectsBadSpecs: out-of-domain shards are ErrBadShard
// (the endpoint's 400), not panics or silent truncation.
func TestExecuteDetectShardRejectsBadSpecs(t *testing.T) {
	o := shardTestOptions(t)
	cases := []ShardSpec{
		{},
		{Ranges: []ShardRange{{App: "nonesuch", Lo: 0, Hi: 1}}},
		{Ranges: []ShardRange{{App: "fft", Lo: -1, Hi: 1}}},
		{Ranges: []ShardRange{{App: "fft", Lo: 0, Hi: 5}}}, // Injections is 4
		{Ranges: []ShardRange{{App: "fft", Lo: 2, Hi: 2}}},
		{Ranges: []ShardRange{{App: "fft", Lo: 3, Hi: 1}}},
	}
	for i, spec := range cases {
		if _, _, err := ExecuteDetectShard(o, spec); !errors.Is(err, ErrBadShard) {
			t.Errorf("case %d: error %v, want ErrBadShard", i, err)
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
	if _, _, err := ExecuteDetectShard(o, fullSpec(o)); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error %v, want ErrInterrupted", err)
	}
}
