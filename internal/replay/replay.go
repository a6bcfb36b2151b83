// Package replay implements deterministic replay from a CORD order log
// (§2.7.1) and the record/replay verification the paper performs (§3.3):
// an execution is recorded, replayed under the log's epoch schedule, and the
// replayed run is required to reproduce the recorded one exactly — the same
// per-thread sequences of read values, the same per-thread instruction
// counts, and the same final memory image.
package replay

import (
	"fmt"

	"cord/internal/core"
	"cord/internal/record"
	"cord/internal/sim"
	"cord/internal/trace"
)

// Outcome reports one record-then-replay round trip.
type Outcome struct {
	// Recorded and Replayed are the two execution results.
	Recorded sim.Result
	Replayed sim.Result
	// Log is the order log that drove the replay.
	Log *record.Log
	// Match reports that replay reproduced the recording exactly.
	Match bool
	// Mismatch names the first divergence when Match is false.
	Mismatch string
}

// Options configures a verification run.
type Options struct {
	Seed       uint64
	Jitter     uint64
	InjectSkip uint64 // replayed with the same injection plan
	D          int    // CORD window parameter (default 16)
	Procs      int    // processors (default 4); threads pin round-robin
}

// RecordAndReplay executes prog under a recording CORD detector, replays it
// from the log, and compares the two executions. A hung recorded run (a
// possible consequence of injection) is returned with Match=false and a
// descriptive Mismatch; it is the caller's business to treat it as an
// injection artifact rather than a replay failure.
func RecordAndReplay(prog sim.Program, opts Options) (Outcome, error) {
	if opts.D <= 0 {
		opts.D = 16
	}
	det := core.New(core.Config{
		Threads: prog.Threads,
		Procs:   opts.Procs,
		D:       opts.D,
		Record:  true,
	})
	rec, err := sim.New(sim.Config{
		Seed:       opts.Seed,
		Jitter:     opts.Jitter,
		Procs:      opts.Procs,
		Observers:  []trace.Observer{det},
		InjectSkip: opts.InjectSkip,
	}, prog).Run()
	if err != nil {
		return Outcome{}, fmt.Errorf("replay: recording run: %w", err)
	}
	out := Outcome{Recorded: rec, Log: det.Log()}
	if rec.Hung {
		out.Mismatch = "recorded run deadlocked (injection artifact); nothing to replay"
		return out, nil
	}

	epochs, err := det.Log().Schedule(prog.Threads)
	if err != nil {
		return Outcome{}, fmt.Errorf("replay: scheduling log: %w", err)
	}
	// Replay must remove exactly the instance the recording removed; the
	// global instance index is interleaving-dependent, so the per-thread
	// identity reported by the recording run is used instead (a run with no
	// injection reports an InjectedThreadNth of 0, which injects nothing).
	rep, err := sim.New(sim.Config{
		Seed: opts.Seed, Procs: opts.Procs, ReplayEpochs: epochs,
		InjectThread: rec.InjectedThread, InjectThreadNth: rec.InjectedThreadNth,
	}, prog).Run()
	if err != nil {
		return Outcome{}, fmt.Errorf("replay: replaying run: %w", err)
	}
	out.Replayed = rep
	out.Match, out.Mismatch = compare(rec, rep)
	return out, nil
}

func compare(a, b sim.Result) (bool, string) {
	if b.Hung {
		return false, "replayed run could not follow the log (diverged)"
	}
	if a.Ops != b.Ops {
		return false, fmt.Sprintf("instruction counts differ: recorded %d, replayed %d", a.Ops, b.Ops)
	}
	for t := range a.ThreadInstr {
		if a.ThreadInstr[t] != b.ThreadInstr[t] {
			return false, fmt.Sprintf("thread %d instruction count differs: %d vs %d", t, a.ThreadInstr[t], b.ThreadInstr[t])
		}
	}
	for t := range a.ReadHash {
		if a.ReadHash[t] != b.ReadHash[t] {
			return false, fmt.Sprintf("thread %d read-value sequence differs", t)
		}
	}
	if !a.Mem.Equal(b.Mem) {
		return false, "final memory images differ"
	}
	return true, ""
}
