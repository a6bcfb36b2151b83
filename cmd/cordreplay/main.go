// Command cordreplay demonstrates deterministic replay: it records one
// execution under CORD, optionally writes the binary order log to a file,
// replays the execution from the log, and verifies the replay reproduces
// the recording exactly — including executions whose synchronization was
// deliberately broken by fault injection.
//
// Usage:
//
//	cordreplay -app fft -seed 9 -inject 12 -log /tmp/fft.cordlog
package main

import (
	"flag"
	"fmt"
	"os"

	"cord"
	"cord/internal/record"
	"cord/internal/workload"
)

// validateFlags rejects out-of-domain parameters before any simulation work,
// in line with cordsim/cordbench: bad invocations exit 2 with usage instead
// of failing deep inside a run.
func validateFlags(scale, d int) error {
	if scale < 1 {
		return fmt.Errorf("-scale must be at least 1")
	}
	if d < 1 {
		return fmt.Errorf("-d must be at least 1 (the paper's sync-read window is a positive count)")
	}
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		appName = flag.String("app", "fft", "application to record and replay")
		seed    = flag.Uint64("seed", 1, "scheduling seed")
		scale   = flag.Int("scale", 1, "workload scale factor")
		inject  = flag.Uint64("inject", 0, "remove the Nth dynamic sync instance (0 = none)")
		d       = flag.Int("d", 16, "CORD sync-read window D")
		logPath = flag.String("log", "", "write the binary order log here")
	)
	flag.Parse()

	if err := validateFlags(*scale, *d); err != nil {
		fmt.Fprintf(os.Stderr, "cordreplay: %v\n", err)
		flag.Usage()
		return 2
	}

	app, err := workload.ByName(*appName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordreplay: unknown application %q\n", *appName)
		return 2
	}

	out, err := cord.RecordAndReplay(app.Build(*scale, 4), cord.ReplayOptions{
		Seed: *seed, Jitter: 7, InjectSkip: *inject, D: *d,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordreplay: %v\n", err)
		return 1
	}

	fmt.Printf("recorded: %d accesses, %d instructions, %d cycles\n",
		out.Recorded.Accesses, out.Recorded.Ops, out.Recorded.Cycles)
	fmt.Printf("order log: %d entries, %d bytes (%.2f bytes/kinstr)\n",
		out.Log.Len(), out.Log.SizeBytes(),
		float64(out.Log.SizeBytes())/float64(out.Recorded.Ops)*1000)

	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cordreplay: %v\n", err)
			return 1
		}
		if err := out.Log.EncodeTo(f); err != nil {
			fmt.Fprintf(os.Stderr, "cordreplay: writing log: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cordreplay: closing log: %v\n", err)
			return 1
		}
		// Round-trip through the binary format as a sanity check.
		rf, err := os.Open(*logPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cordreplay: %v\n", err)
			return 1
		}
		reread, err := record.DecodeFrom(rf)
		rf.Close()
		if err != nil || reread.Len() != out.Log.Len() {
			fmt.Fprintf(os.Stderr, "cordreplay: log round-trip failed: %v\n", err)
			return 1
		}
		fmt.Printf("log written to %s and decoded back (%d entries)\n", *logPath, reread.Len())
	}

	if out.Recorded.Hung {
		fmt.Println("recorded run deadlocked (injection artifact) — nothing to replay")
		return 0
	}
	if out.Match {
		fmt.Println("replay: EXACT — per-thread read values, instruction counts and final memory all match")
	} else {
		fmt.Printf("replay: MISMATCH — %s\n", out.Mismatch)
		return 1
	}
	return 0
}
