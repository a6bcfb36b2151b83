// Command cordsim runs one Table 1 application on the simulated CMP with a
// chosen set of detectors attached, optionally removing one dynamic
// synchronization instance (the paper's §3.4 fault injection), and reports
// what each detector found.
//
// Usage:
//
//	cordsim -app raytrace -seed 3 -inject 17 -d 16
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"text/tabwriter"

	"cord"
	"cord/internal/server"
	"cord/internal/workload"
)

func main() {
	os.Exit(run())
}

// validateFlags rejects out-of-domain parameters before any simulation work,
// mirroring cordbench: bad invocations exit 2 with usage instead of failing
// deep inside a run (or silently simulating a nonsensical configuration).
func validateFlags(scale, threads, d, races int) error {
	if scale <= 0 || threads <= 0 {
		return fmt.Errorf("-scale and -threads must be at least 1")
	}
	if d < 1 {
		return fmt.Errorf("-d must be at least 1 (the paper's sync-read window is a positive count)")
	}
	if races < 0 {
		return fmt.Errorf("-races must be non-negative")
	}
	return nil
}

func run() int {
	var (
		appName    = flag.String("app", "raytrace", "application (see -list)")
		list       = flag.Bool("list", false, "list applications and exit")
		seed       = flag.Uint64("seed", 1, "scheduling seed")
		scale      = flag.Int("scale", 1, "workload scale factor")
		threads    = flag.Int("threads", 4, "threads (= processors)")
		inject     = flag.Uint64("inject", 0, "remove the Nth dynamic sync instance (0 = none)")
		d          = flag.Int("d", 16, "CORD sync-read window D")
		races      = flag.Int("races", 10, "max races to print per detector")
		jsonPath   = flag.String("json", "", "write a machine-readable run summary to this file (- for stdout)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if err := validateFlags(*scale, *threads, *d, *races); err != nil {
		fmt.Fprintf(os.Stderr, "cordsim: %v\n", err)
		flag.Usage()
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cordsim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cordsim: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cordsim: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "cordsim: writing heap profile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, a := range cord.Apps() {
			fmt.Printf("%-10s (paper input: %s)\n", a.Name, a.Input)
		}
		return 0
	}

	app, err := workload.ByName(*appName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordsim: unknown application %q (try -list)\n", *appName)
		return 2
	}

	det := cord.NewDetector(cord.DetectorConfig{Threads: *threads, Procs: *threads, D: *d, Record: true})
	ideal := cord.NewIdealDetector(*threads)
	vec := cord.NewVectorDetector(cord.VectorConfig{Threads: *threads, Procs: *threads, Bound: cord.BoundL2})

	res, err := cord.Run(app.Build(*scale, *threads), cord.RunConfig{
		Seed: *seed, Jitter: 7, InjectSkip: *inject,
		Observers: []cord.Observer{ideal, vec, det},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordsim: %v\n", err)
		return 1
	}

	fmt.Printf("%s seed=%d scale=%d threads=%d inject=%d\n", app.Name, *seed, *scale, *threads, *inject)
	fmt.Printf("  accesses=%d instructions=%d sync-instances=%d hung=%v\n",
		res.Accesses, res.Ops, res.SyncInstances, res.Hung)
	if *inject > 0 {
		if *inject > res.SyncInstances {
			fmt.Fprintf(os.Stderr,
				"cordsim: warning: -inject %d exceeds the run's %d dynamic sync instances; nothing was removed\n",
				*inject, res.SyncInstances)
		} else {
			fmt.Printf("  removed instance: thread %d, its %d-th own sync operation\n",
				res.InjectedThread, res.InjectedThreadNth)
		}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "detector\tracy accesses\tproblem detected")
	fmt.Fprintf(w, "%s\t%d\t%v\n", ideal.Name(), ideal.RaceCount(), ideal.ProblemDetected())
	fmt.Fprintf(w, "%s\t%d\t%v\n", vec.Name(), vec.RaceCount(), vec.ProblemDetected())
	fmt.Fprintf(w, "%s\t%d\t%v\n", det.Name(), det.RaceCount(), det.ProblemDetected())
	w.Flush()

	st := det.Stats()
	fmt.Printf("CORD activity: checks=%d memTsBroadcasts=%d clockChanges=%d log=%d bytes\n",
		st.CheckRequests, st.MemTsBroadcasts, st.ClockChanges, det.Log().SizeBytes())

	shown := 0
	for _, r := range det.Races() {
		if shown >= *races {
			fmt.Printf("  ... and %d more\n", det.Stats().RaceReports-shown)
			break
		}
		confirmed := "confirmed by oracle"
		if !ideal.Confirms(r) {
			confirmed = "NOT CONFIRMED (should never happen)"
		}
		fmt.Printf("  %v  [%s]\n", r, confirmed)
		shown++
	}

	if *jsonPath != "" {
		// The summary IS the service's DetectResponse, built by the same
		// constructor, so a cordsim -json file and a POST /v1/detect body for
		// the same parameters are byte-identical.
		req := server.DetectRequest{App: app.Name, Seed: *seed, Scale: *scale, Threads: *threads, Inject: *inject, D: *d}
		sum := server.NewDetectResponse(req, res, ideal, vec, det)
		b, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "cordsim: encoding summary: %v\n", err)
			return 1
		}
		b = append(b, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*jsonPath, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cordsim: %v\n", err)
			return 1
		}
	}
	return 0
}
