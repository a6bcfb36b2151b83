package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs every named workload n times on seeds 1..n, each run in a
// fresh child process as a benchmark driver would, and prints each metric's
// median, quartiles and interquartile spread (q3-q1 as a share of the
// median). It returns non-zero when a run fails or reports correct=false.
func steadiness(spec string, n, seconds, traceFl int, stdout, stderr io.Writer) int {
	names, err := workloadList(spec)
	if err != nil || n < 2 {
		fmt.Fprintf(stderr, "perfbench: --steady needs at least 2 runs and known workloads (%v)\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	fmt.Fprintf(stdout, "%-8s %-40s %14s %14s %14s %8s\n", "workload", "metric", "median", "q1", "q3", "spread")
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traceFl))
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", name, seed, err)
				status = 1
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res struct {
				Correct bool              `json:"correct"`
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: incorrect or unreadable result (%v)\n", name, seed, err)
				status = 1
				continue
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if len(values[k]) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(values[k])
			fmt.Fprintf(stdout, "%-8s %-40s %14.6g %14.6g %14.6g %7.2f%%  %s\n",
				name, k, q2, q1, q3, 100*ratio(q3-q1, q2), units[k])
		}
	}
	return status
}
