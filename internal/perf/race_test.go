//go:build race

package perf

// raceEnabled reports that the race detector instruments this test binary,
// which changes the relative cost of the kernels.
const raceEnabled = true
