package sim_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"cord/internal/core"
	"cord/internal/machine"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// digestObserver folds every event the engine delivers — each access with
// all its fields, each migration, each finished thread — into one hash, so
// two runs agree on the digest only if they produced the same interleaving.
type digestObserver struct {
	h   hash.Hash64
	buf [8]byte
	n   uint64 // accesses seen, sampled by the OnEpoch tap
}

func newDigestObserver() *digestObserver { return &digestObserver{h: fnv.New64a()} }

func (d *digestObserver) put(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digestObserver) Name() string { return "digest" }

func (d *digestObserver) OnAccess(a trace.Access) trace.Report {
	d.n++
	d.put(1, a.Seq, uint64(a.Thread), uint64(a.Proc), uint64(a.Addr), uint64(a.Kind),
		uint64(a.Class), a.Instr, uint64(a.Instrs))
	return trace.Report{}
}

func (d *digestObserver) Migrate(thread, proc int, instr uint64) {
	d.put(2, uint64(thread), uint64(proc), instr)
}

func (d *digestObserver) ThreadDone(thread int, totalInstr uint64) {
	d.put(3, uint64(thread), totalInstr)
}

func (d *digestObserver) Finish() { d.put(4) }

// result folds the run's Result into the digest and returns it.
func (d *digestObserver) result(res sim.Result) uint64 {
	d.put(5, res.Cycles, res.Ops, res.Accesses, res.SyncInstances,
		uint64(int64(res.InjectedThread)), res.InjectedThreadNth)
	d.put(res.ReadHash...)
	d.put(res.ThreadInstr...)
	if res.Hung {
		d.put(6)
	}
	return d.h.Sum64()
}

// interleavingDigests runs app under every scheduler mode the engine has and
// returns one digest per mode, in the order of digestModes.
func interleavingDigests(t *testing.T, app workload.App) [5]uint64 {
	const threads, procs = 4, 4
	var out [5]uint64
	run := func(cfg sim.Config, d *digestObserver) sim.Result {
		t.Helper()
		cfg.Observers = append(cfg.Observers, d)
		res, err := sim.New(cfg, app.Build(1, threads)).Run()
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		return res
	}

	// Detection mode: uniform costs, seeded jitter, one removed sync instance.
	d := newDigestObserver()
	out[0] = d.result(run(sim.Config{Seed: 7, Jitter: 12, Procs: procs, InjectSkip: 5}, d))

	// Performance mode: the machine timing model priced by a recording CORD
	// detector's reports. Its order log drives the two replay modes below.
	det := core.New(core.Config{Threads: threads, Procs: procs, D: 16, Record: true})
	d = newDigestObserver()
	rec := run(sim.Config{
		Seed:      3,
		Procs:     procs,
		Cost:      machine.New(machine.DefaultConfig()),
		Observers: []trace.Observer{det},
		Primary:   det,
	}, d)
	out[1] = d.result(rec)

	// Migration every fourth sync instance.
	d = newDigestObserver()
	out[2] = d.result(run(sim.Config{Seed: 11, Jitter: 4, Procs: procs, MigrateEvery: 4}, d))

	epochs, err := det.Log().Schedule(threads)
	if err != nil {
		t.Fatalf("%s: schedule: %v", app.Name, err)
	}

	// Replay of the recorded log as a complete schedule.
	d = newDigestObserver()
	out[3] = d.result(run(sim.Config{Seed: 3, Procs: procs, ReplayEpochs: epochs}, d))

	// The same replay fed incrementally, with every OnEpoch call (its index
	// and how many accesses preceded it) folded into the digest.
	feed := sim.NewReplayFeed()
	go func() {
		for i := 0; i < len(epochs); i += 64 {
			feed.Append(epochs[i:min(i+64, len(epochs))]...)
		}
		feed.CloseFeed()
	}()
	d = newDigestObserver()
	onEpoch := func(idx int) { d.put(7, uint64(idx), d.n) }
	out[4] = d.result(run(sim.Config{Seed: 3, Procs: procs, ReplayFeed: feed, OnEpoch: onEpoch}, d))
	return out
}

var digestModes = [5]string{"jitter+inject", "machine+cord", "migrate", "replay-epochs", "replay-feed"}

// wantDigests pins the interleaving each app produces under each mode. Any
// change to the engine that alters which thread runs when, what an access
// carries, or what a run returns moves a digest; engine optimizations must
// leave every one of them unchanged.
var wantDigests = map[string][5]uint64{
	"barnes":    {0xb9015ed2898e3080, 0xbed70fa50f551572, 0x9a4c34fe0bac3bb1, 0x9d258721659fb1df, 0x16b80ce16000cff9},
	"cholesky":  {0x702a4729d2582b25, 0x1e2580619ef9ef13, 0x511ad37a9a104e2, 0xe0d5b7523ee99d04, 0x64eebe238a31da6e},
	"fft":       {0x80cf937307c0de82, 0x125c13a0ce3230ae, 0x25d672b332c92511, 0x4b4cf2339fa1f00b, 0xca0b8c5603bd012f},
	"fmm":       {0x7423a2bc4f49700a, 0xb505c52957578077, 0x1122959fa60cd2d8, 0x9eddb4abae5993a5, 0x49673792889f9467},
	"lu":        {0xaf87f47e0764e2f6, 0x826f7f63a356902c, 0x6a889cd6f0878ce6, 0x2252f51b0a8fe17a, 0x97b307a6fff453b5},
	"ocean":     {0x9ca6d9a4936fa735, 0x8731c1cf6d483094, 0xad2503b992e04430, 0xd4eeef41d7310fce, 0xac9101737599476b},
	"radiosity": {0x79d6ab3511410ab2, 0xe9c028253b8cc11e, 0x8c1d0cbc6fdd51ba, 0xb873f0c3f23c40b3, 0xbde20dc10d037f76},
	"radix":     {0x1134949f50e9e875, 0xdc722e3eb440fa92, 0xff5a20619bb9f33a, 0xe5a9a7fb51777a65, 0x264c26a8fc2c0fd1},
	"raytrace":  {0x1735dc00e140b876, 0xa2cac1fb18ad9217, 0x69ff35df9bfbd6e0, 0xb743c0e78e868119, 0x8c86667052fbee4f},
	"volrend":   {0x3a297b952651041b, 0xd2374e1dbc076554, 0x2e2ac1113a04015a, 0x6b1f603ca36a3092, 0x5a74c24338827c00},
	"water-n2":  {0x827fd4747f3952b0, 0xb3df83a087f4d071, 0xaf8997a88427c39f, 0xdfc00293d69c3014, 0x7217005a127f3bbf},
	"water-sp":  {0x6a3085778e272567, 0x18567fb8757f372a, 0x8490594b35c2db3e, 0xdf56a5619aadc9c3, 0x4d82bb9974e1a4ee},
}

// TestInterleavingDigests locks in the engine's schedule for all twelve apps
// across detection, performance, migration and both replay modes.
func TestInterleavingDigests(t *testing.T) {
	for _, app := range workload.All() {
		got := interleavingDigests(t, app)
		want := wantDigests[app.Name]
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %s: digest %#x, want %#x", app.Name, digestModes[i], got[i], want[i])
			}
		}
	}
}
