// Package cord is a from-scratch reproduction of "CORD: Cost-effective (and
// nearly overhead-free) Order-Recording and Data race detection"
// (Milos Prvulovic, HPCA-12, 2006).
//
// The package simulates the paper's hardware — a 4-processor CMP with
// private L1/L2 caches, snooping coherence and a half-rate address/timestamp
// bus — and implements the CORD mechanism on top of it: 16-bit scalar
// logical clocks with a sliding-window comparator, two timestamps plus
// per-word access bits per cache line, whole-memory fallback timestamps, the
// sync-read D window, an 8-byte-entry order log, and deterministic replay.
// The baseline detectors of the paper's evaluation (the Ideal oracle and the
// cache-bounded vector-clock schemes) and the twelve Splash-2-like workloads
// of Table 1 are included, along with the fault-injection methodology and a
// harness that regenerates every figure.
//
// # Quick start
//
//	prog := cord.AppByName("raytrace").Build(1, 4) // or write your own Program
//	det := cord.NewDetector(cord.DetectorConfig{Threads: 4, D: 16, Record: true})
//	res, err := cord.Run(prog, cord.RunConfig{Seed: 1, Observers: []cord.Observer{det}})
//	// det.Races() — data races; det.Log() — the order log; replay it:
//	out, err := cord.RecordAndReplay(prog, cord.ReplayOptions{Seed: 1})
//
// Custom workloads program against Env inside a Program body:
//
//	al := cord.NewAllocator()
//	lock := cord.NewMutex(al)
//	data := al.Alloc(64)
//	prog := cord.Program{
//		Name: "mine", Threads: 4,
//		Body: func(t int, env *cord.Env) {
//			lock.Lock(env)
//			env.Write(data.Word(t), 42)
//			lock.Unlock(env)
//		},
//	}
package cord

import (
	"cord/internal/baseline"
	"cord/internal/core"
	"cord/internal/directory"
	"cord/internal/experiment"
	"cord/internal/machine"
	"cord/internal/memsys"
	"cord/internal/record"
	"cord/internal/replay"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// Memory-system vocabulary.
type (
	// Addr is a byte address in the simulated physical address space.
	Addr = memsys.Addr
	// Region is a line-aligned span of simulated memory.
	Region = memsys.Region
	// Allocator hands out non-overlapping regions.
	Allocator = memsys.Allocator
	// Memory is the simulated word-value store.
	Memory = memsys.Memory
)

// Execution-engine vocabulary.
type (
	// Program is a runnable multithreaded workload.
	Program = sim.Program
	// Env is a thread's handle to the simulated machine.
	Env = sim.Env
	// RunConfig controls one execution (seeds, injection, observers).
	RunConfig = sim.Config
	// Result summarizes one execution.
	Result = sim.Result
	// Mutex, Barrier and Flag are the synchronization primitives, built
	// from labeled sync accesses exactly as §3.4 describes.
	Mutex   = sim.Mutex
	Barrier = sim.Barrier
	Flag    = sim.Flag
)

// Detection vocabulary.
type (
	// Observer receives the access stream of an execution.
	Observer = trace.Observer
	// Access is one dynamic shared-memory access event.
	Access = trace.Access
	// Race is one reported data race.
	Race = trace.Race
	// Detector is the CORD mechanism (the paper's contribution).
	Detector = core.Detector
	// DetectorConfig parameterizes a CORD instance.
	DetectorConfig = core.Config
	// DetectorStats are a CORD instance's activity counters; they carry a
	// stable JSON encoding for machine-readable run summaries.
	DetectorStats = core.Stats
	// IdealDetector is the ground-truth oracle.
	IdealDetector = baseline.Ideal
	// VectorDetector is the cache-bounded vector-clock baseline.
	VectorDetector = baseline.VecCache
	// VectorConfig parameterizes a vector-clock baseline.
	VectorConfig = baseline.VecConfig
	// OrderLog is the binary order-recording log of §2.7.1.
	OrderLog = record.Log
	// ReplayOptions configures a record-then-replay verification.
	ReplayOptions = replay.Options
	// ReplayOutcome reports a record/replay round trip.
	ReplayOutcome = replay.Outcome
	// TimingMachine is the detailed CMP cost model of §3.1.
	TimingMachine = machine.Machine
	// App is one Table 1 application.
	App = workload.App
	// AreaModel prices per-line timestamp state (§2.3–2.4).
	AreaModel = experiment.AreaModel
	// Directory is the message counter of the directory-coherence extension
	// (§2.5). Pass one via DetectorConfig.Directory: it counts the
	// point-to-point messages a directory would send for the detector's
	// transactions, forwarding each only to the remote caches that hold the
	// line. Detection is the same as under snooping.
	Directory = directory.Directory
	// DirectoryStats counts the extension's point-to-point messages.
	DirectoryStats = directory.Stats
)

// Storage bounds for the vector-clock baseline (Figs. 14–15).
const (
	BoundInf = baseline.BoundInf
	BoundL2  = baseline.BoundL2
	BoundL1  = baseline.BoundL1
)

// NewAllocator returns an allocator for a fresh simulated address space.
func NewAllocator() *Allocator { return memsys.NewAllocator() }

// NewMutex allocates a mutex on its own cache line.
func NewMutex(al *Allocator) Mutex { return sim.NewMutex(al) }

// NewBarrier allocates a sense barrier for n threads.
func NewBarrier(al *Allocator, n int) *Barrier { return sim.NewBarrier(al, n) }

// NewFlag allocates a one-word condition flag.
func NewFlag(al *Allocator) Flag { return sim.NewFlag(al) }

// NewDetector builds a CORD detector; attach it to a run via
// RunConfig.Observers. DefaultDetectorConfig matches the paper (D=16, two
// timestamps per line bounded by the 32 KB L2, recording on).
func NewDetector(cfg DetectorConfig) *Detector { return core.New(cfg) }

// DefaultDetectorConfig is the paper's CORD configuration.
func DefaultDetectorConfig() DetectorConfig { return core.DefaultConfig() }

// NewIdealDetector builds the ground-truth oracle.
func NewIdealDetector(threads int) *IdealDetector { return baseline.NewIdeal(threads) }

// NewVectorDetector builds a cache-bounded vector-clock baseline.
func NewVectorDetector(cfg VectorConfig) *VectorDetector { return baseline.NewVecCache(cfg) }

// NewTimingMachine builds the §3.1 machine cost model; pass it as
// RunConfig.Cost (and the CORD detector as RunConfig.Primary) to measure
// Fig. 11-style overhead.
func NewTimingMachine() *TimingMachine { return machine.New(machine.DefaultConfig()) }

// Run executes a program under the given configuration.
func Run(prog Program, cfg RunConfig) (Result, error) {
	return sim.New(cfg, prog).Run()
}

// RecordAndReplay records an execution under CORD, replays it from the order
// log, and verifies the replay reproduces the recording exactly (§3.3).
func RecordAndReplay(prog Program, opts ReplayOptions) (ReplayOutcome, error) {
	return replay.RecordAndReplay(prog, opts)
}

// Apps returns the twelve Table 1 applications.
func Apps() []App { return workload.All() }

// AppByName returns a Table 1 application; it panics on an unknown name
// (the set is fixed and enumerable via Apps).
func AppByName(name string) App {
	a, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return a
}

// NewDirectory builds a message counter for the §2.5 extension. It keeps no
// per-processor state, so any processor count works.
func NewDirectory(procs int) *Directory { return directory.New(procs) }

// DefaultAreaModel returns the paper's chip-area configuration, whose
// ScalarOverhead, VectorPerLineOverhead and VectorPerWordOverhead methods
// reproduce the 19% / 38% / 200% figures of §2.3–2.4.
func DefaultAreaModel() AreaModel { return experiment.DefaultAreaModel() }
