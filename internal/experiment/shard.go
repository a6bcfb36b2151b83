package experiment

import (
	"encoding/json"
	"errors"
	"fmt"

	"cord/internal/workload"
)

// This file is the worker half of the distributed detection campaign
// (PROTOCOL.md §6): a shard — one application's half-open injection-run
// range — executed in isolation, returning the exact outcome cells the
// coordinator's checkpoint journal would hold had it run those runs itself.
// Everything rests on the campaign's determinism contract (see the package
// comment): a run is a pure function of (BaseSeed, app index, run index),
// so a worker that receives only the campaign configuration and a range of
// indices produces, byte for byte, the cells of any other executor.

// ErrBadShard reports a shard range that names runs outside the campaign's
// domain — an unknown application or an out-of-range index. The cordd
// campaign endpoint maps it to HTTP 400.
var ErrBadShard = errors.New("experiment: invalid shard specification")

// ShardRange is one unit of distributed campaign work: the half-open
// injection-run interval [Lo, Hi) of one application, with Lo and Hi run
// indices in [0, Injections].
type ShardRange struct {
	App string `json:"app"`
	Lo  int    `json:"lo"`
	Hi  int    `json:"hi"`
}

// Cell is one run outcome under its deterministic journal identity: Key is
// the checkpoint key an equivalent local campaign would use, Data the exact
// JSON bytes it would journal. A coordinator merges cells by appending them
// verbatim to its own journal and re-running the campaign against it; the
// aggregation cannot tell a remote cell from a local one.
type Cell struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// Fingerprint is the stable token condensing the result-determining
// campaign configuration (CampaignMeta, defaults applied). Coordinator and
// worker each compute it independently; the campaign wire protocol rejects
// a shard whose declared fingerprint disagrees with the worker's own
// computation, which is what catches version or configuration skew before
// any simulation runs.
func (o Options) Fingerprint() string { return o.fingerprint() }

// DetectKeys lists the journal keys of the cells ExecuteDetectShard returns
// for r, in cell order; it fails like ExecuteDetectShard on a bad range.
// A coordinator uses it to tell which cells its journal already holds.
func (o Options) DetectKeys(r ShardRange) ([]string, error) {
	o = o.withDefaults()
	ids, err := o.shardRuns(r)
	if err != nil {
		return nil, err
	}
	return o.detectKeys(ids), nil
}

// detectKeys is DetectKeys over one application's runs.
func (o Options) detectKeys(ids []runID) []string {
	keys := make([]string, 0, 1+len(ids))
	keys = append(keys, o.runKey("detect-count", ids[0].app, 0))
	for _, id := range ids {
		keys = append(keys, o.runKey("detect-inject", id.app, id.run))
	}
	return keys
}

// OptionsFromMeta reconstructs campaign Options from wire metadata: the
// inverse of Options.Meta, used by the cordd campaign endpoint. Zero fields
// take the same defaults the CLI applies (so a normalized meta round-trips
// to an equal fingerprint); negative fields and unknown or repeated
// application names are rejected. Result-independent knobs — Procs and
// Checkpoint — are deliberately not on the wire and stay at their zero
// values for the worker to choose locally.
func OptionsFromMeta(m CampaignMeta) (Options, error) {
	if m.Scale < 0 || m.Threads < 0 || m.Injections < 0 {
		return Options{}, fmt.Errorf("experiment: campaign meta fields must be non-negative (scale=%d threads=%d injections=%d)",
			m.Scale, m.Threads, m.Injections)
	}
	if m.Threads > 1<<16-1 {
		return Options{}, fmt.Errorf("experiment: threads=%d does not fit the wire format's 16-bit thread id", m.Threads)
	}
	o := Options{
		BaseSeed:   m.BaseSeed,
		Scale:      m.Scale,
		Threads:    m.Threads,
		Injections: m.Injections,
	}
	if len(m.Apps) > 0 {
		apps, err := workload.ByNames(m.Apps)
		if err != nil {
			return Options{}, fmt.Errorf("experiment: campaign meta: %w", err)
		}
		o.Apps = apps
	}
	return o, nil
}

// ExecuteDetectShard runs one shard of the detection campaign and returns
// its outcome cells in canonical order: the application's count cell, then
// its injection cells by run index. The shard recomputes the application's
// phase-1 sizing run — a count cell is cheap, and recomputing it beats
// shipping injection targets around, because the cell is a pure function of
// the configuration: shards of one application emit byte-identical copies of
// its count cell, and the coordinator's journal collapses them (same key,
// same bytes).
//
// Execution honors the campaign's full Options surface: runs fan out across
// o.Procs workers, a failed run aborts the shard, a chaos crash-after
// fires, closing o.Interrupt drains and returns ErrInterrupted, and
// closing o.Cancel aborts in-flight simulations. With o.Checkpoint set the
// shard's runs journal locally too, exactly like a local campaign.
func ExecuteDetectShard(o Options, r ShardRange) ([]Cell, error) {
	o = o.withDefaults()
	ids, err := o.shardRuns(r)
	if err != nil {
		return nil, err
	}
	counts, outcomes, err := o.detectRuns(ids)
	if err != nil {
		return nil, err
	}

	// Each cell holds exactly the bytes journaledRun appends: json.Marshal
	// of the outcome value.
	values := []any{&counts[ids[0].app]}
	for k := range outcomes {
		values = append(values, &outcomes[k])
	}
	keys := o.detectKeys(ids)
	cells := make([]Cell, len(keys))
	for i, v := range values {
		data, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("experiment: encoding cell %s: %w", keys[i], err)
		}
		cells[i] = Cell{Key: keys[i], Data: data}
	}
	return cells, nil
}

// shardRuns validates r and lists its runs in run order.
func (o Options) shardRuns(r ShardRange) ([]runID, error) {
	appIdx := -1
	for i, a := range o.Apps {
		if a.Name == r.App {
			appIdx = i
		}
	}
	if appIdx < 0 {
		return nil, fmt.Errorf("%w: application %q is not in this campaign", ErrBadShard, r.App)
	}
	if r.Lo < 0 || r.Hi > o.Injections || r.Lo >= r.Hi {
		return nil, fmt.Errorf("%w: range [%d, %d) of %q outside [0, %d)",
			ErrBadShard, r.Lo, r.Hi, r.App, o.Injections)
	}
	ids := make([]runID, 0, r.Hi-r.Lo)
	for i := r.Lo; i < r.Hi; i++ {
		ids = append(ids, runID{appIdx, i})
	}
	return ids, nil
}
