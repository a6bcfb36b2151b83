package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"cord/internal/baseline"
	"cord/internal/core"
	"cord/internal/directory"
	"cord/internal/machine"
	"cord/internal/record"
	"cord/internal/server"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// The traced run attributes host time to the repository's layers from
// outside the program. experiment and server build their observers
// privately, so it re-executes a deterministic sample of the same run
// configurations from the public constructors, with the same observer sets
// and settings. Each sampled run executes twice: undecorated, then with every
// trace.Observer and the sim.CostModel wrapped in timing decorators. The two
// must give identical sim.Result JSON; the ratio of their times is the
// tracing overhead. Calls into record, server and experiment are timed as
// whole spans. Spans stay in memory and are written out when the run ends.
//
// A layer's self time is its span's busy time minus its children's. The
// Engine.Run span's children are the observer and cost-model spans, so its
// self time is the engine's own work: scheduling and thread hand-off.

// Sample sizes of the traced run.
const (
	detectSample = 24 // /v1/detect requests: two per app
	ingestRounds = 2  // sessions per synthetic log and phase
)

// span is one timed interval. Aggregated spans (an observer's calls within
// one run) have no meaningful start or end; Busy is the sum of their calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Count  int64  `json:"count"` // calls, accesses or entries the span covers
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) open(parent int, layer, name, detail string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name,
		Detail: detail, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) close(id int, count int64) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Busy, s.Count = s.End-s.Start, count
	return time.Duration(s.Busy)
}

// aggregate records a child span whose busy time was summed over many calls.
func (t *tracer) aggregate(parent int, layer, name string, busy time.Duration, count int64) {
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name,
		Start: now, End: now, Busy: int64(busy), Count: count})
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(parent int, layer, name, detail string, count int64, fn func() error) (time.Duration, error) {
	id := t.open(parent, layer, name, detail)
	err := fn()
	return t.close(id, count), err
}

// layerTotal is the summed busy and self time and count of every span with
// one layer and name under one root.
type layerTotal struct {
	busy, self time.Duration
	count      int64
}

func (l layerTotal) nsPer() float64 { return ratio(float64(l.busy), float64(l.count)) }

// totals aggregates the spans under each root span by root name and
// "layer.name".
func (t *tracer) totals() map[string]map[string]*layerTotal {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.Busy
	}
	out := map[string]map[string]*layerTotal{}
	for _, s := range t.spans {
		root := s
		for root.Parent != 0 {
			root = t.spans[root.Parent-1]
		}
		m := out[root.Name]
		if m == nil {
			m = map[string]*layerTotal{}
			out[root.Name] = m
		}
		k := s.Layer + "." + s.Name
		if m[k] == nil {
			m[k] = &layerTotal{}
		}
		m[k].busy += time.Duration(s.Busy)
		m[k].self += time.Duration(s.Busy - child[s.ID])
		m[k].count += s.Count
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// timedObserver is a timing decorator for a trace.Observer.
type timedObserver struct {
	trace.Observer
	busy     time.Duration
	accesses int64
}

func (o *timedObserver) OnAccess(a trace.Access) trace.Report {
	t0 := time.Now()
	r := o.Observer.OnAccess(a)
	o.busy += time.Since(t0)
	o.accesses++
	return r
}

func (o *timedObserver) Migrate(thread, proc int, instr uint64) {
	t0 := time.Now()
	o.Observer.Migrate(thread, proc, instr)
	o.busy += time.Since(t0)
}

func (o *timedObserver) ThreadDone(thread int, totalInstr uint64) {
	t0 := time.Now()
	o.Observer.ThreadDone(thread, totalInstr)
	o.busy += time.Since(t0)
}

func (o *timedObserver) Finish() {
	t0 := time.Now()
	o.Observer.Finish()
	o.busy += time.Since(t0)
}

// timedCost is a timing decorator for a sim.CostModel.
type timedCost struct {
	sim.CostModel
	busy     time.Duration
	accesses int64
}

func (c *timedCost) AccessCost(now uint64, proc int, a trace.Access, rep trace.Report) uint64 {
	t0 := time.Now()
	v := c.CostModel.AccessCost(now, proc, a, rep)
	c.busy += time.Since(t0)
	c.accesses++
	return v
}

func (c *timedCost) ComputeCost(proc int, n uint64) uint64 {
	t0 := time.Now()
	v := c.CostModel.ComputeCost(proc, n)
	c.busy += time.Since(t0)
	return v
}

// probe is one observer of a sampled run and the layer and name its time is
// attributed to.
type probe struct {
	layer, name string
	obs         trace.Observer
}

// runSpec is one sampled run configuration, built fresh for each execution.
type runSpec struct {
	prog      sim.Program
	cfg       sim.Config // Observers, Primary and Cost are filled in from the fields below
	cost      sim.CostModel
	costLayer string // "machine" or "sim"
	probes    []probe
	primary   bool // probes[0] is the primary observer, whose reports feed the cost model
}

// executed is the decorated execution of a runSpec.
type executed struct {
	spec  runSpec
	res   sim.Result
	plain time.Duration // the undecorated execution's time
}

// sampler executes sampled runs and keeps the per-workload totals the
// trace-overhead and allocation metrics need.
type sampler struct {
	tr               *tracer
	plain, decorated map[string]time.Duration
	accesses         map[string]int64
	out              *outcome
}

func (s *sampler) execute(wl string, parent int, detail string, mk func() runSpec) (executed, error) {
	u := mk()
	cfg := u.cfg
	for _, p := range u.probes {
		cfg.Observers = append(cfg.Observers, p.obs)
	}
	if u.primary {
		cfg.Primary = cfg.Observers[0]
	}
	cfg.Cost = u.cost
	t0 := time.Now()
	plain, err := sim.New(cfg, u.prog).Run()
	pd := time.Since(t0)
	if err != nil {
		return executed{}, fmt.Errorf("%s: %w", detail, err)
	}

	d := mk()
	cfg = d.cfg
	var wrapped []*timedObserver
	for _, p := range d.probes {
		w := &timedObserver{Observer: p.obs}
		wrapped = append(wrapped, w)
		cfg.Observers = append(cfg.Observers, w)
	}
	if d.primary {
		cfg.Primary = cfg.Observers[0]
	}
	tc := &timedCost{CostModel: d.cost}
	if tc.CostModel == nil {
		tc.CostModel = sim.SimpleCost{} // what sim.New selects for a nil Cost
	}
	cfg.Cost = tc
	id := s.tr.open(parent, "sim", "Engine.Run", detail)
	res, err := sim.New(cfg, d.prog).Run()
	dd := s.tr.close(id, int64(res.Accesses))
	if err != nil {
		return executed{}, fmt.Errorf("%s (decorated): %w", detail, err)
	}
	for i, w := range wrapped {
		s.tr.aggregate(id, d.probes[i].layer, d.probes[i].name, w.busy, w.accesses)
	}
	s.tr.aggregate(id, d.costLayer, "cost", tc.busy, tc.accesses)

	s.plain[wl] += pd
	s.decorated[wl] += dd
	s.accesses[wl] += int64(plain.Accesses + res.Accesses)
	a, _ := json.Marshal(plain) // a sim.Result always marshals
	b, _ := json.Marshal(res)
	s.out.check(bytes.Equal(a, b), "traced %s: decorated sim.Result differs from the undecorated one", detail)
	return executed{spec: d, res: res, plain: pd}, nil
}

// runtimeCounters reads the allocation and GC counters of runtime/metrics.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func cordDetector(threads, procs, d int, rec bool) *core.Detector {
	return core.New(core.Config{Threads: threads, Procs: procs, D: d, Record: rec})
}

// injectionTarget is the target experiment.RunDetection draws for injection
// run i of app appIdx, given the app's sizing-run sync count.
func injectionTarget(base uint64, appIdx int, syncInstances uint64, i int) uint64 {
	rng := rand.New(rand.NewPCG(base^uint64(appIdx*7919+1), 0xD1CE))
	maxTarget := max(syncInstances*9/10, 1)
	var t uint64
	for j := 0; j <= i; j++ {
		t = 1 + rng.Uint64N(maxTarget)
	}
	return t
}

// sampleFigures re-executes, for every app, one run of each configuration
// the figures campaigns use: the Table 1 sizing run, the detection sizing run
// and one injection run, one overhead seed (baseline and CORD, machine timing
// model), the replay check's recording, schedule and replay, and the
// directory run. Which injection and overhead seed is drawn from the seed.
func (s *sampler) sampleFigures(root int, seed uint64) (logEntries int64, err error) {
	base := campaignOptions(seed).Meta().BaseSeed
	const th = simThreads
	for appIdx, app := range workload.All() {
		pick := splitmix64(seed ^ uint64(appIdx)<<32)
		i := int(pick % goldenInjections)
		sd := (pick >> 8) % overheadSeeds

		if _, err := s.execute("figures", root, "table1 "+app.Name, func() runSpec {
			return runSpec{prog: app.Build(1, th), cfg: sim.Config{Seed: base, Jitter: 7}, costLayer: "sim",
				probes: []probe{{"baseline", "fasttrack", baseline.NewFastTrack(baseline.FastTrackConfig{Threads: th, Shards: 1})}}}
		}); err != nil {
			return 0, err
		}
		count, err := s.execute("figures", root, "count "+app.Name, func() runSpec {
			return runSpec{prog: app.Build(1, th), cfg: sim.Config{Seed: base, Jitter: 7}, costLayer: "sim"}
		})
		if err != nil {
			return 0, err
		}
		target := injectionTarget(base, appIdx, count.res.SyncInstances, i)
		if _, err := s.execute("figures", root, fmt.Sprintf("inject %s #%d", app.Name, i), func() runSpec {
			vec := func(b baseline.Bound) *baseline.VecCache {
				return baseline.NewVecCache(baseline.VecConfig{Threads: th, Procs: th, Bound: b})
			}
			return runSpec{
				prog:      app.Build(1, th),
				cfg:       sim.Config{Seed: base + uint64(appIdx)*1_000_003 + uint64(i)*97, Jitter: 7, InjectSkip: target},
				costLayer: "sim",
				probes: []probe{
					{"baseline", "ideal", baseline.NewIdeal(th)},
					{"baseline", "vec_inf", vec(baseline.BoundInf)},
					{"baseline", "vec_l2", vec(baseline.BoundL2)},
					{"baseline", "vec_l1", vec(baseline.BoundL1)},
					{"baseline", "fasttrack", baseline.NewFastTrack(baseline.FastTrackConfig{Threads: th, Shards: 1})},
					{"core", "d1", cordDetector(th, th, 1, false)},
					{"core", "d4", cordDetector(th, th, 4, false)},
					{"core", "d16", cordDetector(th, th, 16, false)},
					{"core", "d256", cordDetector(th, th, 256, false)},
				},
			}
		}); err != nil {
			return 0, err
		}

		ovSeed := base + 31*sd
		if _, err := s.execute("figures", root, "overhead baseline "+app.Name, func() runSpec {
			return runSpec{prog: app.Build(overheadScale, th), cfg: sim.Config{Seed: ovSeed, Jitter: 2},
				cost: machine.New(machine.DefaultConfig()), costLayer: "machine"}
		}); err != nil {
			return 0, err
		}
		ov, err := s.execute("figures", root, "overhead cord "+app.Name, func() runSpec {
			return runSpec{prog: app.Build(overheadScale, th), cfg: sim.Config{Seed: ovSeed, Jitter: 2},
				cost: machine.New(machine.DefaultConfig()), costLayer: "machine", primary: true,
				probes: []probe{{"core", "d16", cordDetector(th, th, 16, true)}}}
		})
		if err != nil {
			return 0, err
		}
		logEntries += int64(ov.spec.probes[0].obs.(*core.Detector).Log().Len())

		// experiment.RunReplayCheck through replay.RecordAndReplay: record
		// under CORD (processors left at the default), schedule, replay.
		rec, err := s.execute("figures", root, "replay record "+app.Name, func() runSpec {
			return runSpec{prog: app.Build(1, th), cfg: sim.Config{Seed: base + 1, Jitter: 7}, costLayer: "sim",
				probes: []probe{{"core", "d16", cordDetector(th, 0, 16, true)}}}
		})
		if err != nil {
			return 0, err
		}
		log := rec.spec.probes[0].obs.(*core.Detector).Log()
		logEntries += int64(log.Len())
		var epochs []record.Epoch
		if _, err := s.tr.timed(root, "record", "Log.Schedule", app.Name, int64(log.Len()), func() (err error) {
			epochs, err = log.Schedule(th)
			return err
		}); err != nil {
			return 0, err
		}
		if _, err := s.execute("figures", root, "replay "+app.Name, func() runSpec {
			return runSpec{prog: app.Build(1, th), cfg: sim.Config{Seed: base + 1, ReplayEpochs: epochs}, costLayer: "sim"}
		}); err != nil {
			return 0, err
		}

		if _, err := s.execute("figures", root, "directory "+app.Name, func() runSpec {
			return runSpec{prog: app.Build(1, directoryProcs), cfg: sim.Config{Seed: base, Jitter: 7, Procs: directoryProcs},
				costLayer: "sim",
				probes: []probe{
					{"core", "d16", cordDetector(directoryProcs, directoryProcs, 16, false)},
					{"core", "d16_directory", core.New(core.Config{Threads: directoryProcs, Procs: directoryProcs, D: 16,
						Directory: directory.New(directoryProcs)})},
				}}
		}); err != nil {
			return 0, err
		}
	}
	return logEntries, nil
}

// sampleDetect re-executes the first detectSample requests of the detect
// workload with the observers server.RunDetect attaches, and times each
// request in-process and over HTTP, alternating which goes first.
func (s *sampler) sampleDetect(root int, e *env) (overheadMS []float64, err error) {
	for k := 0; k < detectSample; k++ {
		req := e.in.request(k)
		app, err := workload.ByName(req.App)
		if err != nil {
			return nil, err
		}
		if _, err := s.execute("detect", root, fmt.Sprintf("detect %s/%d", req.App, req.Seed), func() runSpec {
			return runSpec{prog: app.Build(1, simThreads), cfg: sim.Config{Seed: req.Seed, Jitter: 7, InjectSkip: req.Inject},
				costLayer: "sim",
				probes: []probe{
					{"baseline", "ideal", baseline.NewIdeal(simThreads)},
					{"baseline", "vec_l2", baseline.NewVecCache(baseline.VecConfig{Threads: simThreads, Procs: simThreads, Bound: baseline.BoundL2})},
					{"core", "d16", cordDetector(simThreads, simThreads, 16, true)},
				}}
		}); err != nil {
			return nil, err
		}
		direct := func() (time.Duration, error) {
			return s.tr.timed(root, "server", "RunDetect", req.App, 1, func() error {
				_, err := server.RunDetect(context.Background(), req)
				return err
			})
		}
		viaHTTP := func() (time.Duration, error) {
			return s.tr.timed(root, "server", "POST /v1/detect", req.App, 1, func() error {
				_, err := e.svc.detect(req)
				return err
			})
		}
		var dd, hd time.Duration
		var derr, herr error
		if k%2 == 0 {
			dd, derr = direct()
			hd, herr = viaHTTP()
		} else {
			hd, herr = viaHTTP()
			dd, derr = direct()
		}
		s.out.check(derr == nil && herr == nil, "traced detect %s/%d: direct %v, http %v", req.App, req.Seed, derr, herr)
		overheadMS = append(overheadMS, ms(hd-dd))
	}
	return overheadMS, nil
}

// feedChunks decodes an encoded log the way a stream session receives it,
// chunkBytes at a time, passing every entry to emit.
func feedChunks(body []byte, emit func(record.Entry) error) error {
	dec := record.NewStreamDecoder()
	for off := 0; off < len(body); off += chunkBytes {
		if err := dec.Feed(body[off:min(off+chunkBytes, len(body))], emit); err != nil {
			return err
		}
	}
	return dec.Close()
}

// decodeLog decodes an encoded log chunk by chunk and returns its entries.
func decodeLog(body []byte) ([]record.Entry, error) {
	var entries []record.Entry
	err := feedChunks(body, func(e record.Entry) error { entries = append(entries, e); return nil })
	return entries, err
}

// epochs runs entries through an EpochStream and returns the whole schedule.
func epochs(entries []record.Entry) ([]record.Epoch, error) {
	es := record.NewEpochStream(simThreads)
	var out []record.Epoch
	for _, e := range entries {
		rel, err := es.Push(e)
		if err != nil {
			return nil, err
		}
		out = append(out, rel...)
	}
	return append(out, es.Flush()...), nil
}

// sampleIngest times, for every synthetic log, the decoder and the epoch
// stream in-process and one ingest and one duty0 session over HTTP.
func (s *sampler) sampleIngest(root int, e *env) error {
	for round := 0; round < ingestRounds; round++ {
		for i, l := range e.in.synth {
			detail := fmt.Sprintf("synthetic log %d", i)
			n := int64(l.entries)
			// Neither timed step keeps its output, as a duty0 session keeps
			// neither entries nor epochs; the epoch stream runs on a decoded
			// copy.
			if _, err := s.tr.timed(root, "record", "StreamDecoder.Feed", detail, n, func() error {
				return feedChunks(l.body, func(record.Entry) error { return nil })
			}); err != nil {
				return err
			}
			entries, err := decodeLog(l.body)
			if err != nil {
				return err
			}
			if _, err := s.tr.timed(root, "record", "EpochStream", detail, n, func() error {
				es := record.NewEpochStream(simThreads)
				for _, e := range entries {
					if _, err := es.Push(e); err != nil {
						return err
					}
				}
				es.Flush()
				return nil
			}); err != nil {
				return err
			}
			_, ierr := s.tr.timed(root, "server", "ingest session", detail, n, func() error { return ingestSession(e.svc, l, false) })
			_, derr := s.tr.timed(root, "server", "duty0 session", detail, n, func() error { return ingestSession(e.svc, l, true) })
			s.out.check(ierr == nil && derr == nil, "traced %s: ingest %v, duty0 %v", detail, ierr, derr)
		}
	}
	return nil
}

// sampleOnline replays every online recording in-process the way a duty=100
// session does — decode, epoch stream, feed-driven replay under a CORD
// detector — and streams it once over HTTP.
func (s *sampler) sampleOnline(root int, e *env) (overheadMS []float64, err error) {
	for _, r := range e.in.online {
		detail := fmt.Sprintf("%s/%d", r.app, r.seed)
		app, err := workload.ByName(r.app)
		if err != nil {
			return nil, err
		}
		var entries []record.Entry
		dd, err := s.tr.timed(root, "record", "StreamDecoder.Feed", detail, int64(r.entries), func() (err error) {
			entries, err = decodeLog(r.body)
			return err
		})
		if err != nil {
			return nil, err
		}
		var eps []record.Epoch
		ed, err := s.tr.timed(root, "record", "EpochStream", detail, int64(r.entries), func() (err error) {
			eps, err = epochs(entries)
			return err
		})
		if err != nil {
			return nil, err
		}
		run, err := s.execute("online", root, "online "+detail, func() runSpec {
			feed := sim.NewReplayFeed()
			feed.Append(eps...)
			feed.CloseFeed()
			cfg := sim.Config{Seed: r.seed, ReplayFeed: feed}
			if r.injectThread >= 0 {
				cfg.InjectThread, cfg.InjectThreadNth = r.injectThread, r.injectNth
			}
			return runSpec{prog: app.Build(1, simThreads), cfg: cfg, costLayer: "sim",
				probes: []probe{{"core", "d16", cordDetector(simThreads, simThreads, 16, false)}}}
		})
		if err != nil {
			return nil, err
		}
		races := run.spec.probes[0].obs.(*core.Detector).RaceCount()
		s.out.check(races == r.races, "traced online %s: in-process replay found %d racy accesses, the recording %d", detail, races, r.races)
		hd, herr := s.tr.timed(root, "server", "online session", detail, int64(r.entries), func() error { return onlineSession(e.svc, r) })
		s.out.check(herr == nil, "traced online %s: %v", detail, herr)
		overheadMS = append(overheadMS, ms(hd-(dd+ed+run.plain)))
	}
	return overheadMS, nil
}

// traced runs the traced attribution over every workload's sample and
// reports the per-layer metrics.
func traced(e *env, path string) (*outcome, error) {
	out := newOutcome()
	tr := &tracer{t0: time.Now()}
	s := &sampler{tr: tr, out: out, plain: map[string]time.Duration{}, decorated: map[string]time.Duration{},
		accesses: map[string]int64{}}

	a0, g0 := runtimeCounters()
	root := tr.open(0, "workload", "figures", "")
	p, err := runCampaign(campaignOptions(e.seed))
	if err != nil {
		return nil, err
	}
	for _, name := range entryPoints {
		tr.aggregate(root, "experiment", name, p.entry[name], 1)
	}
	logEntries, err := s.sampleFigures(root, e.seed)
	if err != nil {
		return nil, err
	}
	tr.close(root, 0)
	a1, g1 := runtimeCounters()

	root = tr.open(0, "workload", "detect", "")
	detectOverhead, err := s.sampleDetect(root, e)
	if err != nil {
		return nil, err
	}
	tr.close(root, 0)
	a2, g2 := runtimeCounters()

	root = tr.open(0, "workload", "ingest", "")
	if err := s.sampleIngest(root, e); err != nil {
		return nil, err
	}
	tr.close(root, 0)
	a3, _ := runtimeCounters()

	root = tr.open(0, "workload", "online", "")
	onlineOverhead, err := s.sampleOnline(root, e)
	if err != nil {
		return nil, err
	}
	tr.close(root, 0)
	a4, g4 := runtimeCounters()
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}

	t := tr.totals()
	get := func(root, key string) layerTotal {
		if l := t[root][key]; l != nil {
			return *l
		}
		return layerTotal{}
	}
	ns := func(name string, l layerTotal) { out.metric(name, l.nsPer(), "ns") }

	// sim: the engine's self time, on figures (no suffix), detect and online.
	for _, wl := range []struct{ root, suffix string }{{"figures", ""}, {"detect", ".detect"}, {"online", ".online"}} {
		run := get(wl.root, "sim.Engine.Run")
		out.metric("sim.engine_ns_per_access"+wl.suffix, ratio(float64(run.self), float64(run.count)), "ns")
		out.metric("sim.engine_share"+wl.suffix, ratio(float64(run.self), float64(run.busy)), "frac")
		out.metric("sim.accesses"+wl.suffix, float64(run.count), "count")
	}
	for _, k := range []string{"d1", "d4", "d16", "d256"} {
		ns("core."+k+"_ns_per_access", get("figures", "core."+k))
	}
	ns("core.d16_ns_per_access.detect", get("detect", "core.d16"))
	ns("core.d16_ns_per_access.online", get("online", "core.d16"))
	ns("core.d16_directory_ns_per_access", get("figures", "core.d16_directory"))
	out.metric("core.log_entries", float64(logEntries), "count")
	for _, k := range []string{"ideal", "vec_inf", "vec_l2", "vec_l1", "fasttrack"} {
		ns("baseline."+k+"_ns_per_access", get("figures", "baseline."+k))
	}
	ns("baseline.ideal_ns_per_access.detect", get("detect", "baseline.ideal"))
	ns("baseline.vec_l2_ns_per_access.detect", get("detect", "baseline.vec_l2"))
	mach := get("figures", "machine.cost")
	ns("machine.ns_per_access", mach)
	out.metric("machine.share", ratio(float64(mach.busy), float64(get("figures", "sim.Engine.Run").busy)), "frac")

	decode, es := get("ingest", "record.StreamDecoder.Feed"), get("ingest", "record.EpochStream")
	ns("record.decode_ns_per_entry", decode)
	ns("record.epochstream_ns_per_entry.duty0", es)
	ns("record.epochstream_ns_per_entry.online", get("online", "record.EpochStream"))
	ns("record.schedule_ns_per_entry", get("figures", "record.Log.Schedule"))
	for _, name := range entryPoints {
		out.metric("experiment."+name+"_s", get("figures", "experiment."+name).busy.Seconds(), "s")
	}

	out.metric("server.detect_overhead_ms", percentile(detectOverhead, 0.5), "ms")
	ingest, duty0 := get("ingest", "server.ingest session"), get("ingest", "server.duty0 session")
	out.metric("server.ingest_ns_per_entry", ratio(float64(ingest.busy-decode.busy), float64(ingest.count)), "ns")
	out.metric("server.duty0_ns_per_entry", ratio(float64(duty0.busy-decode.busy-es.busy), float64(duty0.count)), "ns")
	out.metric("server.online_overhead_ms", percentile(onlineOverhead, 0.5), "ms")

	out.metric("runtime.alloc_bytes_per_access", ratio(float64(a1-a0), float64(s.accesses["figures"])), "B")
	out.metric("runtime.alloc_bytes_per_access.detect", ratio(float64(a2-a1), float64(s.accesses["detect"])), "B")
	out.metric("runtime.alloc_bytes_per_access.online", ratio(float64(a4-a3), float64(s.accesses["online"])), "B")
	out.metric("runtime.gc_cycles", float64(g1-g0), "count")
	out.metric("runtime.gc_cycles.detect", float64(g2-g1), "count")
	out.metric("runtime.gc_cycles.stream", float64(g4-g2), "count")
	for _, wl := range []struct{ name, suffix string }{{"figures", ""}, {"detect", ".detect"}, {"online", ".online"}} {
		out.metric("trace_overhead_frac"+wl.suffix, ratio(float64(s.decorated[wl.name]), float64(s.plain[wl.name])), "ratio")
	}
	out.note("trace_spans", float64(len(tr.spans)), "count")
	return out, nil
}
