package sim_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"cord/internal/baseline"
	"cord/internal/core"
	"cord/internal/progen"
	"cord/internal/sim"
	"cord/internal/trace"
)

// postedRun is everything one run shows an outsider: the interleaving digest,
// the Result as the wire encodes it, and the CORD and Ideal race lists.
type postedRun struct {
	digest      uint64
	result      []byte
	cord, ideal []trace.Race
}

// runPosted runs prog with a queue of postCap posted requests per thread.
func runPosted(t *testing.T, prog sim.Program, cfg sim.Config, postCap int) postedRun {
	t.Helper()
	threads := prog.Threads
	det := core.New(core.Config{Threads: threads, Procs: cfg.Procs, D: 16, Record: true})
	ideal := baseline.NewIdeal(threads)
	d := newDigestObserver()
	cfg.Observers = []trace.Observer{ideal, det, d}
	eng := sim.New(cfg, prog)
	eng.SetPostCap(postCap)
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("%s at post capacity %d: %v", prog.Name, postCap, err)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return postedRun{digest: d.result(res), result: js, cord: det.Races(), ideal: ideal.Races()}
}

// FuzzPostedParked checks the engine's claim that posting never moves the
// global order: a generated program run with the default queue of 64 posted
// requests and with a queue of one, where every Env call parks until the
// engine has executed it, yields the same interleaving digest, the same
// Result and the same CORD and Ideal races. The seed picks the program (and
// with it how each read-modify-write and fold is spelled) and the
// interleaving, threads the thread count (1–8), inject the dynamic sync
// instance removed (0 removes none), and migrate the migration cadence (0
// migrates never).
func FuzzPostedParked(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint16(0), uint8(0))
	f.Add(uint64(42), uint8(3), uint16(5), uint8(4))
	f.Add(uint64(7), uint8(1), uint16(2), uint8(1))
	f.Add(uint64(1001), uint8(7), uint16(9), uint8(3))
	f.Add(uint64(3), uint8(0), uint16(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, threads uint8, inject uint16, migrate uint8) {
		th := 1 + int(threads)%8
		cfg := progen.DefaultConfig()
		cfg.Threads = th
		cfg.Regions = 3
		cfg.RegionWords = 8
		cfg.OpsPerThread = 40
		prog := progen.New(seed, cfg).Prog
		run := sim.Config{
			Seed:         seed,
			Jitter:       7,
			Procs:        max(th/2, 1),
			InjectSkip:   uint64(inject),
			MigrateEvery: uint64(migrate % 8),
		}
		posted := runPosted(t, prog, run, 64)
		parked := runPosted(t, prog, run, 1)
		if posted.digest != parked.digest {
			t.Errorf("digest %#x posted, %#x parked", posted.digest, parked.digest)
		}
		if string(posted.result) != string(parked.result) {
			t.Errorf("result posted:\n%s\nparked:\n%s", posted.result, parked.result)
		}
		if !reflect.DeepEqual(posted.cord, parked.cord) {
			t.Errorf("CORD races: %d posted, %d parked", len(posted.cord), len(parked.cord))
		}
		if !reflect.DeepEqual(posted.ideal, parked.ideal) {
			t.Errorf("Ideal races: %d posted, %d parked", len(posted.ideal), len(parked.ideal))
		}
	})
}
