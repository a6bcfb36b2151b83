package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"cord/internal/workload"
)

// This file is the worker half of the distributed detection campaign
// (PROTOCOL.md §6): a shard — some application's half-open injection-run
// ranges — executed in isolation, returning the exact outcome cells the
// coordinator's checkpoint journal would hold had it run those runs itself.
// Everything rests on the campaign's determinism contract (see the package
// comment): a run is a pure function of (BaseSeed, app index, run index),
// so a worker that receives only the campaign configuration and a range of
// indices produces, byte for byte, the cells of any other executor.

// ErrBadShard reports a shard specification that names runs outside the
// campaign's domain — an unknown application or an out-of-range index. The
// cordd campaign endpoint maps it to HTTP 400.
var ErrBadShard = errors.New("experiment: invalid shard specification")

// ShardRange names the half-open injection-run interval [Lo, Hi) of one
// application. Lo and Hi are run indices in [0, Injections].
type ShardRange struct {
	App string `json:"app"`
	Lo  int    `json:"lo"`
	Hi  int    `json:"hi"`
}

// ShardSpec is one unit of distributed campaign work: a set of run ranges
// executed together. Ranges may name several applications; overlapping or
// duplicate indices are collapsed, and the cells of a shard are canonically
// ordered — applications by campaign index, each application's count cell
// first, then injection cells by run index — so two spec-equal shards
// always yield byte-identical responses regardless of range order.
type ShardSpec struct {
	Ranges []ShardRange `json:"ranges"`
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

// DetectCountKey is the journal identity of an application's phase-1 sizing
// run in the detection campaign.
func (o Options) DetectCountKey(app int) string { return o.runKey("detect-count", app, 0) }

// DetectInjectKey is the journal identity of one fault-injection run in the
// detection campaign.
func (o Options) DetectInjectKey(app, run int) string { return o.runKey("detect-inject", app, run) }

// OptionsFromMeta reconstructs campaign Options from wire metadata: the
// inverse of Options.Meta, used by the cordd campaign endpoint. Zero fields
// take the same defaults the CLI applies (so a normalized meta round-trips
// to an equal fingerprint); negative fields and unknown application names
// are rejected. Result-independent knobs — Procs and Checkpoint —
// are deliberately not on the wire and stay at their zero values for the
// worker to choose locally.
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
		o.Apps = make([]workload.App, len(m.Apps))
		for i, name := range m.Apps {
			app, err := workload.ByName(name)
			if err != nil {
				return Options{}, fmt.Errorf("experiment: campaign meta: %w", err)
			}
			o.Apps[i] = app
		}
	}
	return o, nil
}

// ExecuteDetectShard runs one shard of the detection campaign and returns
// its outcome cells in canonical order. The shard recomputes the phase-1
// sizing run of every application it touches — a count cell is cheap, and
// recomputing it beats shipping injection targets around, because the cell
// is a pure function of the configuration: shards that share an application
// emit byte-identical copies of its count cell, and the coordinator's
// journal collapses them (same key, same bytes).
//
// Execution honors the campaign's full Options surface: runs fan out across
// o.Procs workers, transient failures retry under o.Retry, chaos faults
// inject, closing o.Interrupt drains and returns ErrInterrupted, and
// closing o.Cancel aborts in-flight simulations. With o.Checkpoint set the
// shard's runs journal locally too, exactly like a local campaign.
func ExecuteDetectShard(o Options, spec ShardSpec) ([]Cell, error) {
	o = o.withDefaults()
	idxOf := make(map[string]int, len(o.Apps))
	for i, a := range o.Apps {
		idxOf[a.Name] = i
	}

	// Collapse the ranges into one sorted run set per application.
	runsByApp := map[int]map[int]bool{}
	for _, r := range spec.Ranges {
		appIdx, ok := idxOf[r.App]
		if !ok {
			return nil, fmt.Errorf("%w: application %q is not in this campaign", ErrBadShard, r.App)
		}
		if r.Lo < 0 || r.Hi > o.Injections || r.Lo >= r.Hi {
			return nil, fmt.Errorf("%w: range [%d, %d) of %q outside [0, %d)",
				ErrBadShard, r.Lo, r.Hi, r.App, o.Injections)
		}
		if runsByApp[appIdx] == nil {
			runsByApp[appIdx] = map[int]bool{}
		}
		for i := r.Lo; i < r.Hi; i++ {
			runsByApp[appIdx][i] = true
		}
	}
	if len(runsByApp) == 0 {
		return nil, fmt.Errorf("%w: a shard must name at least one run", ErrBadShard)
	}
	apps := make([]int, 0, len(runsByApp))
	for appIdx := range runsByApp {
		apps = append(apps, appIdx)
	}
	sort.Ints(apps)

	// Phase 1: size the shard's applications and draw their targets — the
	// same journaled ladder a local campaign uses.
	counts := make(map[int]*countOutcome, len(apps))
	for _, appIdx := range apps {
		counts[appIdx] = &countOutcome{}
	}
	if err := o.forEach(len(apps), func(k int) error {
		appIdx := apps[k]
		return o.journaledRun("detect-count", appIdx, 0, counts[appIdx], func() error {
			out, err := o.countRun(appIdx)
			if err != nil {
				return err
			}
			*counts[appIdx] = out
			return nil
		})
	}); err != nil {
		return nil, err
	}

	// Phase 2: the shard's flat injection-run list, in canonical order.
	type runID struct{ app, run int }
	var flat []runID
	for _, appIdx := range apps {
		runs := make([]int, 0, len(runsByApp[appIdx]))
		for i := range runsByApp[appIdx] {
			runs = append(runs, i)
		}
		sort.Ints(runs)
		for _, i := range runs {
			flat = append(flat, runID{appIdx, i})
		}
	}
	outcomes := make([]injectionOutcome, len(flat))
	if err := o.forEach(len(flat), func(k int) error {
		id := flat[k]
		return o.journaledRun("detect-inject", id.app, id.run, &outcomes[k], func() error {
			out, err := o.runInjection(id.app, id.run, counts[id.app].Targets[id.run])
			if err != nil {
				return err
			}
			outcomes[k] = out
			return nil
		})
	}); err != nil {
		return nil, err
	}

	// Assemble the cells with exactly the bytes journaledRun appends:
	// json.Marshal of the outcome value.
	cells := make([]Cell, 0, len(apps)+len(flat))
	for _, appIdx := range apps {
		data, err := json.Marshal(counts[appIdx])
		if err != nil {
			return nil, fmt.Errorf("experiment: encoding count cell: %w", err)
		}
		cells = append(cells, Cell{Key: o.DetectCountKey(appIdx), Data: data})
	}
	for k, id := range flat {
		data, err := json.Marshal(&outcomes[k])
		if err != nil {
			return nil, fmt.Errorf("experiment: encoding injection cell: %w", err)
		}
		cells = append(cells, Cell{Key: o.DetectInjectKey(id.app, id.run), Data: data})
	}
	return cells, nil
}

// Runs is the number of injection runs the spec names after collapsing
// overlaps, not counting the per-app sizing runs.
func (s ShardSpec) Runs() int {
	seen := map[string]map[int]bool{}
	for _, r := range s.Ranges {
		if seen[r.App] == nil {
			seen[r.App] = map[int]bool{}
		}
		for i := r.Lo; i < r.Hi; i++ {
			seen[r.App][i] = true
		}
	}
	n := 0
	for _, runs := range seen {
		n += len(runs)
	}
	return n
}
