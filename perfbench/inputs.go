package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"cord/internal/clock"
	"cord/internal/core"
	"cord/internal/record"
	"cord/internal/server"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// Every input a workload sends is a pure function of the workload seed: the
// same seed gives the same request and log sequence, a different seed a
// different one. The program under test only ever sees the generated inputs.

// simThreads is the simulated thread count of every generated request and
// log: the service default, so requests can leave it unset.
const simThreads = 4

// chunkBytes is the upload chunk size of every /v1/stream session.
const chunkBytes = 64 << 10

// sizes scales the generated inputs.
type sizes struct {
	synthEntries int // entries per synthetic order log
	synthLogs    int // distinct synthetic logs (ingest and duty0 phases)
	onlineLogs   int // recorded logs of real runs (online phase)
}

var (
	fullSizes  = sizes{synthEntries: 512 << 10, synthLogs: 4, onlineLogs: 24}
	quickSizes = sizes{synthEntries: 4 << 10, synthLogs: 2, onlineLogs: 3}
)

// Stream tags keep the seeded sequences of different inputs independent.
const (
	tagDetect = iota + 1
	tagSizing
	tagSynth
	tagOnline
)

// encodedLog is one order log in wire format (PROTOCOL.md §2).
type encodedLog struct {
	body    []byte
	entries int
	// hash is the FNV-1a hash over the entry bytes: the log_hash every
	// session of this log must report.
	hash string
}

// recording is the order log of a real injected run, plus what the service
// needs to replay it and what the replay must reproduce.
type recording struct {
	encodedLog
	app          string
	seed, inject uint64
	injectThread int // -1: the injection did not land
	injectNth    uint64
	// races is the recording CORD detector's racy-access count; an online
	// session at duty=100 must report the same (PROTOCOL.md §4.7).
	races int
}

// inputs is everything one run sends to the program under test.
type inputs struct {
	seed       uint64
	apps       []workload.App
	syncCounts []uint64 // dynamic sync instances of each app's sizing run
	synth      []encodedLog
	online     []recording
	// redrawn counts online draws rejected because their replay detected
	// differently from the recording (see replaysAlike).
	redrawn int
}

// splitmix64 is a bijective 64-bit mixer: distinct inputs give distinct
// outputs, which is what keeps every generated detect request distinct.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream returns the k-th value of the seeded sequence named by tag.
func (in *inputs) stream(tag, k uint64) uint64 {
	return splitmix64(splitmix64(in.seed^tag<<56) + k)
}

// buildInputs generates every input of a run from seed.
func buildInputs(seed uint64, sz sizes) (*inputs, error) {
	in := &inputs{seed: seed, apps: workload.All()}
	for i, app := range in.apps {
		res, err := sim.New(sim.Config{Seed: in.stream(tagSizing, uint64(i)), Jitter: 7},
			app.Build(1, simThreads)).Run()
		if err != nil {
			return nil, fmt.Errorf("sizing %s: %w", app.Name, err)
		}
		in.syncCounts = append(in.syncCounts, res.SyncInstances)
	}
	for i := 0; i < sz.synthLogs; i++ {
		rng := rand.New(rand.NewPCG(in.stream(tagSynth, uint64(i)), tagSynth))
		l, err := encode(synthLog(rng, sz.synthEntries))
		if err != nil {
			return nil, err
		}
		in.synth = append(in.synth, l)
	}
	for k := 0; k < sz.onlineLogs; k++ {
		r, err := in.record(k)
		if err != nil {
			return nil, err
		}
		in.online = append(in.online, r)
	}
	return in, nil
}

// request is the k-th /v1/detect request: the apps in round-robin order, each
// with a distinct seed and an injection drawn below the app's sync count (0
// means none). The request leaves scale, threads and d at their defaults.
func (in *inputs) request(k int) server.DetectRequest {
	a := k % len(in.apps)
	seed := in.stream(tagDetect, uint64(k))
	return server.DetectRequest{
		App:    in.apps[a].Name,
		Seed:   seed,
		Inject: splitmix64(seed) % (in.syncCounts[a]*9/10 + 1),
	}
}

// synthLog builds a synthetic order log that satisfies the order invariants
// of PROTOCOL.md §3: threads interleave at random, each thread's clock
// advances by small steps from just below the 16-bit wrap, so every stream
// exercises clock unwrapping while the epoch watermark keeps moving.
func synthLog(rng *rand.Rand, entries int) *record.Log {
	var l record.Log
	clocks := make([]clock.Scalar, simThreads)
	for t := range clocks {
		clocks[t] = clock.Scalar(65000 + rng.IntN(16))
	}
	for i := 0; i < entries; i++ {
		t := rng.IntN(simThreads)
		l.Append(record.Entry{Clock: clocks[t], Thread: uint16(t), Instr: uint32(1 + rng.IntN(4096))})
		clocks[t] += clock.Scalar(1 + rng.IntN(8))
	}
	return &l
}

// record runs the k-th online recording: one app in round-robin order, with a
// seeded seed and injection, under a recording CORD detector configured as
// /v1/detect configures it. Draws whose injection deadlocks the run are
// skipped, since a hung recording cannot be replayed to completion, and so
// are draws whose replay detects differently from the recording.
func (in *inputs) record(k int) (recording, error) {
	a := k % len(in.apps)
	app := in.apps[a]
	for attempt := uint64(0); attempt < 16; attempt++ {
		seed := in.stream(tagOnline, uint64(k)<<8|attempt)
		inject := 1 + splitmix64(seed)%max(1, in.syncCounts[a]*9/10)
		det := core.New(core.Config{Threads: simThreads, Procs: simThreads, D: 16, Record: true})
		res, err := sim.New(sim.Config{Seed: seed, Jitter: 7, InjectSkip: inject, Observers: []trace.Observer{det}},
			app.Build(1, simThreads)).Run()
		if err != nil {
			return recording{}, fmt.Errorf("recording %s: %w", app.Name, err)
		}
		if res.Hung {
			continue
		}
		alike, err := replaysAlike(app, seed, res, det)
		if err != nil {
			return recording{}, fmt.Errorf("replaying %s: %w", app.Name, err)
		}
		if !alike {
			in.redrawn++
			continue
		}
		l, err := encode(det.Log())
		if err != nil {
			return recording{}, err
		}
		return recording{
			encodedLog: l, app: app.Name, seed: seed, inject: inject,
			injectThread: res.InjectedThread, injectNth: res.InjectedThreadNth,
			races: det.RaceCount(),
		}, nil
	}
	return recording{}, fmt.Errorf("recording %s: no draw gave a replayable run", app.Name)
}

// replaysAlike replays a recording under the CORD detector an online session
// attaches and reports whether it finds the recording's racy-access count.
// PROTOCOL.md §4.7 promises that at duty=100, but for some injected runs
// (about one draw in 24, in fft and water-sp) the replay reports racy
// accesses the recording did not. Such draws would fail the online gate on a
// defect of the program rather than of the service path the workload
// measures, so they are redrawn, and counted.
func replaysAlike(app workload.App, seed uint64, res sim.Result, det *core.Detector) (bool, error) {
	epochs, err := det.Log().Schedule(simThreads)
	if err != nil {
		return false, err
	}
	rd := core.New(core.Config{Threads: simThreads, Procs: simThreads, D: 16})
	cfg := sim.Config{Seed: seed, ReplayEpochs: epochs, Observers: []trace.Observer{rd}}
	if res.InjectedThread >= 0 {
		cfg.InjectThread, cfg.InjectThreadNth = res.InjectedThread, res.InjectedThreadNth
	}
	rep, err := sim.New(cfg, app.Build(1, simThreads)).Run()
	return err == nil && !rep.Hung && rd.RaceCount() == det.RaceCount(), nil
}

// encode serializes l and computes the content hash the service reports.
func encode(l *record.Log) (encodedLog, error) {
	var buf bytes.Buffer
	if err := l.EncodeTo(&buf); err != nil {
		return encodedLog{}, fmt.Errorf("encoding order log: %w", err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes()[16:]) // the hash covers entries, not the header
	return encodedLog{body: buf.Bytes(), entries: l.Len(), hash: fmt.Sprintf("%016x", h.Sum64())}, nil
}

// digest fingerprints the generated inputs: the first requests and every log.
func (in *inputs) digest() string {
	h := sha256.New()
	for k := 0; k < 4*len(in.apps); k++ {
		r := in.request(k)
		fmt.Fprintf(h, "%s/%d/%d;", r.App, r.Seed, r.Inject)
	}
	for _, l := range in.synth {
		h.Write(l.body)
	}
	for _, r := range in.online {
		fmt.Fprintf(h, "%s/%d/%d/%d/%d/%d;", r.app, r.seed, r.inject, r.injectThread, r.injectNth, r.races)
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
