// Package perf defines the repository's performance-kernel benchmarks and
// the schema-versioned BENCH_perf.json artifact that records their results.
//
// The kernels isolate the simulator's hot paths — the memsys access path,
// the cache structures, the detector OnAccess pipelines, and a full engine
// run — so that a data-structure or algorithm change shows up as a ns/op and
// allocs/op delta rather than only as campaign wall-clock noise. The same
// kernels back three entry points:
//
//   - `go test -bench 'Kernel' ./internal/perf` for interactive work,
//   - cmd/cordperf, which runs every kernel plus a campaign slice and writes
//     the BENCH_perf.json trajectory artifact (see `make bench-json`),
//   - a cheap smoke test that executes every kernel body once under plain
//     `go test ./...` so a broken kernel cannot hide until the next bench run.
package perf

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"cord/internal/baseline"
	"cord/internal/cache"
	"cord/internal/clock"
	"cord/internal/core"
	"cord/internal/machine"
	"cord/internal/memsys"
	"cord/internal/record"
	"cord/internal/server"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// Kernel is one hot-path micro-benchmark. Setup builds the state under test
// and returns the per-iteration body; the body must be safe to call any
// number of times with increasing i.
type Kernel struct {
	Name  string
	Setup func() func(i int)
}

// Bench adapts a kernel to the testing harness: setup outside the timer,
// allocation reporting on.
func (k Kernel) Bench(b *testing.B) {
	body := k.Setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body(i)
	}
}

// Kernels returns the full suite in stable order (the order BENCH_perf.json
// records them in).
func Kernels() []Kernel {
	return []Kernel{
		{Name: "memsys/store-load", Setup: setupMemsysDense},
		{Name: "memsys/sparse-load", Setup: setupMemsysSparse},
		{Name: "cache/bounded-churn", Setup: setupCacheBounded},
		{Name: "cache/unbounded-churn", Setup: setupCacheUnbounded},
		{Name: "cache/mru-hit", Setup: setupCacheMRUHit},
		{Name: "detector/bounded", Setup: setupDetectorBounded},
		{Name: "baseline/vec-infcache", Setup: setupVecInf},
		{Name: "baseline/ideal", Setup: setupIdeal},
		{Name: "baseline/fasttrack", Setup: setupFastTrack},
		{Name: "record/stream-decode", Setup: setupStreamDecode},
		{Name: "record/epoch-stream", Setup: setupEpochStream},
		{Name: "record/epoch-stream-chunk", Setup: setupEpochStreamChunk},
		{Name: "record/schedule", Setup: setupSchedule},
		{Name: "record/schedule-16t", Setup: setupSchedule16},
		{Name: "engine/lock-ping", Setup: setupEngine},
		{Name: "engine/replay", Setup: setupEngineReplay},
		{Name: "engine/detect-run", Setup: setupEngineDetect},
		{Name: "engine/overhead-run", Setup: setupEngineOverhead},
	}
}

// setupMemsysDense exercises the word store the way workload inner loops do:
// word-stride stores and loads over a multi-page working set.
func setupMemsysDense() func(i int) {
	m := memsys.NewMemory()
	const words = 1 << 14 // 64 KB of simulated memory
	return func(i int) {
		a := memsys.Addr(memsys.LineBytes + (i%words)*memsys.WordBytes)
		m.Store(a, uint64(i)|1)
		if m.Load(a) == 0 {
			panic("perf: lost store")
		}
	}
}

// setupMemsysSparse exercises the miss path: loads scattered over a wide
// address range where almost every word is zero.
func setupMemsysSparse() func(i int) {
	m := memsys.NewMemory()
	const span = 1 << 22 // 4 MB address span
	for w := 0; w < span/memsys.WordBytes; w += 1024 {
		m.Store(memsys.Addr(memsys.LineBytes+w*memsys.WordBytes), uint64(w+1))
	}
	rng := rand.New(rand.NewPCG(7, 11))
	addrs := make([]memsys.Addr, 4096)
	for j := range addrs {
		addrs[j] = memsys.Addr(memsys.LineBytes + rng.Uint64N(span))
	}
	var sink uint64
	return func(i int) {
		sink += m.Load(addrs[i%len(addrs)])
	}
}

// setupCacheBounded churns the paper's L2 geometry (cache.L2) with a working
// set twice its capacity: every access is a lookup plus, on miss, an insert
// with eviction.
func setupCacheBounded() func(i int) {
	c := cache.New[uint64](cache.L2)
	lines := 2 * cache.L2.Lines()
	return func(i int) {
		l := memsys.Line(i % lines)
		if p, ok := c.Lookup(l); ok {
			*p++
			return
		}
		p, _ := c.Insert(l)
		*p = uint64(i)
	}
}

// setupCacheMRUHit times the lookups of a resident working set, the
// detectors' common case: the paper's L2 geometry, filled, is read in
// runs of four accesses to one line, so three lookups in four find it
// already MRU and the fourth promotes it from the LRU way.
func setupCacheMRUHit() func(i int) {
	c := cache.New[uint64](cache.L2)
	lines := cache.L2.Lines()
	for l := 0; l < lines; l++ {
		p, _ := c.Insert(memsys.Line(l))
		*p = uint64(l)
	}
	return func(i int) {
		p, ok := c.Lookup(memsys.Line(i / 4 % lines))
		if !ok {
			panic("perf: resident line missed")
		}
		*p++
	}
}

// setupCacheUnbounded mirrors the InfCache detector pattern: lookups and
// inserts over a growing line set and invalidations of a rotating victim,
// plus a periodic full ForEach walk.
func setupCacheUnbounded() func(i int) {
	c := cache.NewUnbounded[uint64]()
	const lines = 1 << 12
	var sink uint64
	return func(i int) {
		l := memsys.Line(i % lines)
		if p, ok := c.Lookup(l); ok {
			*p++
		} else {
			p, _ := c.Insert(l)
			*p = uint64(i)
		}
		if i%8 == 7 {
			c.Remove(memsys.Line((i * 2654435761) % lines))
		}
		if i%4096 == 4095 {
			c.ForEach(func(_ memsys.Line, p *uint64) { sink += *p })
		}
	}
}

// accessStream builds a deterministic synthetic access stream with the mix a
// detector sees in practice: mostly data reads/writes across a multi-line
// working set shared by all threads, with periodic synchronization accesses.
func accessStream(threads, n int) []trace.Access {
	rng := rand.New(rand.NewPCG(42, 43))
	accs := make([]trace.Access, n)
	instr := make([]uint64, threads)
	const lines = 1 << 10
	for i := range accs {
		t := i % threads
		a := trace.Access{
			Seq:    uint64(i),
			Thread: t,
			Proc:   t,
			Instr:  instr[t],
			Instrs: 1,
		}
		// The sync modulus is coprime to the thread count so the sync ops
		// rotate over every thread. If one thread never synchronized, the
		// Ideal oracle could never prune its history and the kernel's
		// footprint would grow without bound across benchmark iterations.
		switch {
		case i%67 == 66: // sync release
			a.Class, a.Kind = trace.Sync, trace.Write
			a.Addr = memsys.Addr(memsys.LineBytes * (1 + uint64(t)))
		case i%67 == 33: // sync acquire
			a.Class, a.Kind = trace.Sync, trace.Read
			a.Addr = memsys.Addr(memsys.LineBytes * (1 + uint64((t+1)%threads)))
		default:
			a.Class = trace.Data
			if rng.Uint64N(4) == 0 {
				a.Kind = trace.Write
			}
			line := 16 + rng.Uint64N(lines)
			word := rng.Uint64N(memsys.WordsPerLine)
			a.Addr = memsys.WordAddr(memsys.Line(line), int(word))
		}
		instr[t]++
		accs[i] = a
	}
	return accs
}

func observerKernel(obs trace.Observer) func(i int) {
	accs := accessStream(4, 1<<14)
	return func(i int) {
		obs.OnAccess(accs[i%len(accs)])
	}
}

// The detector kernels run with recording off: on this deliberately racy
// stream nearly every access changes a clock, so the order log would grow
// with the iteration count and the kernel's footprint would be unbounded.
// The log-append path is priced end to end by engine/lock-ping instead.

func setupDetectorBounded() func(i int) {
	cfg := core.DefaultConfig()
	cfg.Record = false
	return observerKernel(core.New(cfg))
}

func setupVecInf() func(i int) {
	return observerKernel(baseline.NewVecCache(baseline.VecConfig{Threads: 4, Procs: 4, Bound: baseline.BoundInf}))
}

func setupIdeal() func(i int) {
	return observerKernel(baseline.NewIdeal(4))
}

// setupFastTrack prices the epoch detector's serial OnAccess path on the
// shared stream the other baseline kernels use: ns/op is the pure
// epoch-compare cost — the number to hold against baseline/ideal, which
// appends a history record per data access and walks per-thread chains of
// them.
func setupFastTrack() func(i int) {
	return observerKernel(baseline.NewFastTrack(baseline.FastTrackConfig{Threads: 4}))
}

// setupStreamDecode prices the /v1/stream ingest hot path: one iteration
// decodes one transport-sized chunk of an encoded order log into a reused
// entry buffer with record.StreamDecoder.Decode, as a stream session does,
// restarting the stream when it is exhausted. ns/op here is the per-chunk
// decode cost the streaming service pays at line rate; allocs/op must stay 0
// on the steady state.
func setupStreamDecode() func(i int) {
	var l record.Log
	for k := 0; k < 1<<16; k++ {
		l.Append(record.Entry{Clock: clock.Scalar(k / 4), Thread: uint16(k % 4), Instr: uint32(k | 1)})
	}
	var buf bytes.Buffer
	if err := l.EncodeTo(&buf); err != nil {
		panic(err)
	}
	stream := buf.Bytes()
	const chunk = 32 << 10
	d := record.NewStreamDecoder()
	es := make([]record.Entry, 0, chunk/record.EntryBytes)
	off := 0
	var sink uint64
	return func(i int) {
		if off == 0 {
			d.Reset()
		}
		end := off + chunk
		if end > len(stream) {
			end = len(stream)
		}
		var err error
		if es, err = d.Decode(stream[off:end], es[:0]); err != nil {
			panic(err)
		}
		var sum uint64 // summed locally: the captured sink costs a store per entry
		for _, e := range es {
			sum += uint64(e.Instr)
		}
		sink += sum
		if off = end; off == len(stream) {
			if err := d.Close(); err != nil {
				panic(err)
			}
			off = 0
		}
	}
}

// driftLog builds an order log of n entries over the given number of threads
// the way the service benchmark's synthetic logs are built: a random thread
// speaks next and advances its clock by 1..8, starting just below the 16-bit
// wrap, so the threads drift apart and the epoch stream holds a real pending
// window.
func driftLog(n, threads int) *record.Log {
	rng := rand.New(rand.NewPCG(5, 8))
	var l record.Log
	clocks := make([]clock.Scalar, threads)
	for t := range clocks {
		clocks[t] = clock.Scalar(65000 + rng.IntN(16))
	}
	for k := 0; k < n; k++ {
		t := rng.IntN(len(clocks))
		l.Append(record.Entry{Clock: clocks[t], Thread: uint16(t), Instr: uint32(1 + rng.IntN(4096))})
		clocks[t] += clock.Scalar(1 + rng.IntN(8))
	}
	return &l
}

// setupEpochStream prices the online path's ordering step: one iteration
// pushes one entry of a drifting log through record.EpochStream, which
// releases whatever epochs became final. At the end of the log the stream
// flushes and a fresh one starts, so ns/op is the per-entry cost including
// the amortised Flush and set-up.
func setupEpochStream() func(i int) {
	entries := driftLog(1<<16, 4).Entries()
	s := record.NewEpochStream(4)
	return func(i int) {
		k := i % len(entries)
		if k == 0 && i > 0 {
			s.Flush()
			s = record.NewEpochStream(4)
		}
		if _, err := s.Push(entries[k]); err != nil {
			panic(err)
		}
	}
}

// setupEpochStreamChunk prices the duty=0 online path: one iteration appends
// one 4096-entry chunk of a drifting log to record.EpochStream in one call,
// the most a 32 KiB transport chunk decodes to, and discards the epochs that
// became final. At the end of the log the stream flushes and a fresh one
// starts, so ns/op is the per-chunk cost including the amortised Flush and
// set-up; against record/epoch-stream it prices per-entry Push.
func setupEpochStreamChunk() func(i int) {
	const chunk = 4096
	entries := driftLog(1<<16, 4).Entries()
	s := record.NewEpochStream(4)
	var sink int
	return func(i int) {
		k := i % (len(entries) / chunk)
		if k == 0 && i > 0 {
			s.Flush()
			s = record.NewEpochStream(4)
		}
		if err := s.Append(entries[k*chunk : (k+1)*chunk]...); err != nil {
			panic(err)
		}
		sink += s.Discard()
	}
}

// setupSchedule prices the one-shot replay schedule: one iteration is
// record.Log.Schedule over a whole 16Ki-entry drifting log of four threads,
// as /v1/replay and every replay check of the figure campaign run it.
func setupSchedule() func(i int) { return scheduleKernel(4) }

// setupSchedule16 is setupSchedule over sixteen threads. The merge costs
// O(threads) per epoch, and the service accepts up to 64.
func setupSchedule16() func(i int) { return scheduleKernel(16) }

func scheduleKernel(threads int) func(i int) {
	l := driftLog(1<<14, threads)
	return func(i int) {
		eps, err := l.Schedule(threads)
		if err != nil || len(eps) != l.Len() {
			panic(fmt.Sprintf("perf: schedule returned %d epochs, err %v", len(eps), err))
		}
	}
}

// setupEngine runs a complete small execution per iteration: two threads
// ping-ponging a lock-protected counter. This prices the engine's scheduler
// handoff and access delivery end to end, with a CORD detector attached.
func setupEngine() func(i int) {
	return func(i int) {
		var lock, ctr memsys.Addr
		prog := sim.Program{
			Name:    "perf-lock-ping",
			Threads: 2,
			Init:    func(mem *memsys.Memory) {},
			Body: func(t int, env *sim.Env) {
				for k := 0; k < 64; k++ {
					env.Lock(lock)
					env.Write(ctr, env.Read(ctr)+1)
					env.Unlock(lock)
					env.Compute(3)
				}
			},
		}
		lock = memsys.Addr(memsys.LineBytes)
		ctr = memsys.Addr(2 * memsys.LineBytes)
		det := core.New(core.Config{Threads: 2, Procs: 2, D: 16, Record: true})
		res, err := sim.New(sim.Config{
			Seed:      uint64(i + 1),
			Procs:     2,
			Observers: []trace.Observer{det},
			Primary:   det,
		}, prog).Run()
		if err != nil {
			panic(err)
		}
		if res.Mem.Load(ctr) != 128 {
			panic("perf: lock-ping lost updates")
		}
	}
}

// setupEngineReplay records one fft run under a recording CORD detector once;
// each iteration then replays that order log through Config.ReplayEpochs with
// a fresh CORD detector attached, as the replay check and online detection
// do. Replay lets each epoch's thread commit its whole quota, so the
// scheduler mostly re-picks the thread that just ran: this prices the
// engine's run-ahead path, where engine/lock-ping prices thread hand-off.
func setupEngineReplay() func(i int) {
	const threads, procs = 4, 4
	app, err := workload.ByName("fft")
	if err != nil {
		panic(err)
	}
	newDet := func(record bool) *core.Detector {
		return core.New(core.Config{Threads: threads, Procs: procs, D: 16, Record: record})
	}
	rec := newDet(true)
	want, err := sim.New(sim.Config{Seed: 1, Jitter: 8, Procs: procs, Observers: []trace.Observer{rec}},
		app.Build(1, threads)).Run()
	if err != nil {
		panic(err)
	}
	epochs, err := rec.Log().Schedule(threads)
	if err != nil {
		panic(err)
	}
	return func(i int) {
		det := newDet(false)
		res, err := sim.New(sim.Config{Seed: 1, Procs: procs, ReplayEpochs: epochs,
			Observers: []trace.Observer{det}}, app.Build(1, threads)).Run()
		if err != nil {
			panic(err)
		}
		if res.Ops != want.Ops || res.ReadHash[0] != want.ReadHash[0] {
			panic("perf: replay diverged from the recorded run")
		}
	}
}

// setupEngineDetect runs one water-n2 detection session per iteration through
// server.RunDetect: the engine under jitter and one injection with the Ideal,
// L2-bounded vector-clock and recording CORD observers, as every /v1/detect
// request runs it. water-n2 is the heaviest app, with a lock acquire and
// release around every two read-modify-writes, and it sets the detect
// workload's tail.
func setupEngineDetect() func(i int) {
	return func(i int) {
		req := server.DetectRequest{App: "water-n2", Seed: uint64(i%8 + 1), Inject: 5}
		if _, err := server.RunDetect(context.Background(), req); err != nil {
			panic(err)
		}
	}
}

// setupEngineOverhead runs one fft execution per iteration as the Figure 11
// campaign's CORD run is set up: the timing machine prices every access, and
// a recording CORD detector at D = 16, the primary observer, feeds its
// per-access reports into the machine's bus at jitter 2. The other engine
// kernels price accesses with SimpleCost, so this one alone covers the
// engine's hand-off from the primary's report to Machine.AccessCost. fft
// makes the most race-check requests of the Figure 11 apps
// (bench/BENCH_fig11.json), so the reports carry traffic for the bus.
func setupEngineOverhead() func(i int) {
	const threads = 4
	app, err := workload.ByName("fft")
	if err != nil {
		panic(err)
	}
	return func(i int) {
		det := core.New(core.Config{Threads: threads, Procs: threads, D: 16, Record: true})
		res, err := sim.New(sim.Config{
			Seed: uint64(i%8 + 1), Jitter: 2,
			Cost:      machine.New(machine.DefaultConfig()),
			Observers: []trace.Observer{det},
			Primary:   det,
		}, app.Build(1, threads)).Run()
		if err != nil {
			panic(err)
		}
		if res.Hung || det.Stats().Accesses != res.Accesses {
			panic("perf: overhead run hung or lost accesses")
		}
	}
}
