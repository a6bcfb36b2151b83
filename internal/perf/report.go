package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// SchemaVersion is the BENCH_perf.json wire-format version. Bump it on any
// shape change, so a reader can tell the shapes apart.
const SchemaVersion = 1

// BenchResult is one kernel's measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// CampaignPerf records the wall-clock of one serial campaign slice — the
// end-to-end number the micro-kernels decompose.
type CampaignPerf struct {
	Apps        []string `json:"apps"`
	Injections  int      `json:"injections"`
	Procs       int      `json:"procs"`
	WallClockMs float64  `json:"wall_clock_ms"`
}

// Report is the full perf-trajectory artifact. Unlike the figure artifacts
// it is not byte-deterministic (timings vary run to run); it is a recorded
// measurement, compared PR-over-PR by reading the numbers, not by byte diff.
type Report struct {
	Schema     int           `json:"schema"`
	Kind       string        `json:"kind"` // always "perf"
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []BenchResult `json:"benchmarks"`
	Campaign   *CampaignPerf `json:"campaign,omitempty"`
}

// NewReport returns an empty report stamped with the build environment.
func NewReport() Report {
	return Report{
		Schema:    SchemaVersion,
		Kind:      "perf",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
}

// Record converts a harness result into the artifact row for the named
// kernel and appends it.
func (r *Report) Record(name string, br testing.BenchmarkResult) {
	r.Benchmarks = append(r.Benchmarks, BenchResult{
		Name:        name,
		Iterations:  br.N,
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	})
}

// Encode renders the canonical byte form (two-space indent, trailing
// newline), matching the experiment artifact convention.
func (r Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("perf: encoding report: %w", err)
	}
	return append(b, '\n'), nil
}

// Write stores the report at path ("-" for stdout).
func Write(path string, r Report) error {
	b, err := r.Encode()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("perf: writing report: %w", err)
	}
	return nil
}
