package sim_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"cord/internal/core"
	"cord/internal/machine"
	"cord/internal/progen"
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

// interleavingDigests runs prog on four processors under every scheduler
// mode the engine has and returns one digest per mode, in the order of
// digestModes.
func interleavingDigests(t *testing.T, prog sim.Program) [5]uint64 {
	const procs = 4
	threads := prog.Threads
	var out [5]uint64
	run := func(cfg sim.Config, d *digestObserver) sim.Result {
		t.Helper()
		cfg.Observers = append(cfg.Observers, d)
		res, err := sim.New(cfg, prog).Run()
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
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
		t.Fatalf("%s: schedule: %v", prog.Name, err)
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
		got := interleavingDigests(t, app.Build(1, 4))
		want := wantDigests[app.Name]
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %s: digest %#x, want %#x", app.Name, digestModes[i], got[i], want[i])
			}
		}
	}
}

// progenDigestPrograms are generated programs of several shapes and seeds.
// They write in patterns the twelve apps do not: writes right after a lock
// acquire, flag publications between private writes, and back-to-back
// writes with no read between them.
func progenDigestPrograms() []sim.Program {
	shapes := []progen.Config{
		progen.DefaultConfig(),
		{Threads: 2, Regions: 1, RegionWords: 4, OpsPerThread: 40},
		{Threads: 8, Regions: 12, RegionWords: 64, OpsPerThread: 80, Phases: 3, PrivateWords: 256},
		{Threads: 3, Regions: 2, RegionWords: 8, OpsPerThread: 60, Phases: 1, PrivateWords: 16},
		{Threads: 6, Regions: 3, RegionWords: 16, OpsPerThread: 90, Phases: 4, PrivateWords: 32},
	}
	var progs []sim.Program
	for i, shape := range shapes {
		for _, seed := range []uint64{1, 42} {
			progs = append(progs, progen.New(seed+uint64(i)*1000, shape).Prog)
		}
	}
	return progs
}

// wantProgenDigests pins the interleavings of progenDigestPrograms under the
// same five modes as wantDigests.
var wantProgenDigests = map[string][5]uint64{
	"progen-1":    {0x248e3db2fddb1efc, 0x9244df512a4b2358, 0xdbea6ada4098b435, 0xc60aaa005beffac0, 0xf5800baba045f51e},
	"progen-42":   {0x3d2122cc4b06b815, 0x4643f75b4d65f88, 0x1e347ba721f905f2, 0xc72d85642b4ddb12, 0x5ff5dd1179732a0c},
	"progen-1001": {0xa2c91075cf1aeaad, 0xfe9cdfdcb9c3fd65, 0x5e9681e5e0cd25fe, 0x33a320fc54379a31, 0xd55abe719a154827},
	"progen-1042": {0x6dff43c13ed24ce2, 0x9c4875f3edf29d72, 0xe593860a2cf1aeaf, 0x2d4afb421dcfc648, 0xc1f86f6b1f7a7aae},
	"progen-2001": {0x94695becb012e789, 0x43e9bb736fe9c76, 0x9b1f076d22c73b0d, 0xeb4c59d46f5a48ae, 0x85a3dd86b9017d49},
	"progen-2042": {0xb4724cdf7eabcf2, 0xab43999818f89019, 0x6145d88273f3efee, 0x3519cf0337b043f4, 0xddc8c1b7153ffb7d},
	"progen-3001": {0x750478ddd930ff8c, 0x42354832230017fe, 0x69607195b5067d98, 0x54c4fce29c2cb47e, 0x922e4a03ed7209d7},
	"progen-3042": {0x4999d0e4b54e5218, 0xc82c1f8bb2fa8d19, 0x5b7313c25d42fb5d, 0x943331d428fde080, 0xb32a4b4758a9d4ba},
	"progen-4001": {0x696bed451095e1e6, 0x955e4c3502379fd1, 0xd1045d51932485a8, 0xbb1cd49b242a2d3, 0x62f3f9882ffe35cf},
	"progen-4042": {0xde8114328b05f707, 0xa1e3a184bc0274e5, 0x3b3fd1d15761d93c, 0x88212faad035a23f, 0xa269508302102e07},
}

// TestProgenInterleavingDigests locks in the engine's schedule for generated
// programs across detection (with an injection), performance, migration and
// both replay modes.
func TestProgenInterleavingDigests(t *testing.T) {
	for _, prog := range progenDigestPrograms() {
		got := interleavingDigests(t, prog)
		want, ok := wantProgenDigests[prog.Name]
		if !ok {
			t.Fatalf("%s: no pinned digests", prog.Name)
		}
		for m := range got {
			if got[m] != want[m] {
				t.Errorf("%s %s: digest %#x, want %#x", prog.Name, digestModes[m], got[m], want[m])
			}
		}
	}
}
