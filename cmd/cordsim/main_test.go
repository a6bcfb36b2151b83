package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cord/internal/server"
)

// TestJSONMatchesDetectResponse: cordsim -json writes, byte for byte, the
// canonical encoding of the service's DetectResponse for the same app, seed,
// injection and D — the promise that a cordsim summary and a POST /v1/detect
// body are interchangeable.
func TestJSONMatchesDetectResponse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"cordsim", "-app", "radix", "-seed", "3", "-inject", "5", "-d", "4", "-json", path}
	if code := run(); code != 0 {
		t.Fatalf("run() = %d, want 0", code)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := server.RunDetect(context.Background(), server.DetectRequest{App: "radix", Seed: 3, Inject: 5, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("cordsim -json differs from the DetectResponse encoding:\n got  %s\n want %s", got, want)
	}
	if len(resp.Races) == 0 {
		t.Fatal("the run reports no races; pick one whose race list the comparison covers")
	}
}
