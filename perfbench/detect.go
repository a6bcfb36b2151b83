package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"cord/internal/server"
)

// The detect workload is the service's latency: a closed loop of clients
// posting distinct /v1/detect requests, round-robin over the 12 apps.

// Every sampleEvery-th request, up to maxSamples, keeps its response body for
// the byte-for-byte check against an in-process re-run.
const (
	sampleEvery = 16
	maxSamples  = 32
)

func runDetect(e *env) (*outcome, error) {
	out := newOutcome()
	var (
		mu      sync.Mutex
		samples = map[int][]byte{}
	)
	st := closedLoop(e.seconds, func(k int) (int64, error) {
		req := e.in.request(k)
		body, err := e.svc.detect(req)
		if err != nil {
			return 0, err
		}
		var resp server.DetectResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, fmt.Errorf("detect response: %w", err)
		}
		if resp.Schema != server.SchemaVersion || resp.App != req.App || resp.Seed != req.Seed {
			return 0, fmt.Errorf("detect response for %s/%d has schema %d, app %s, seed %d",
				req.App, req.Seed, resp.Schema, resp.App, resp.Seed)
		}
		if k%sampleEvery == 0 && k/sampleEvery < maxSamples {
			mu.Lock()
			samples[k] = body
			mu.Unlock()
		}
		return 1, nil
	})
	out.count(st.attempted, st.failed, st.firstErr)

	// The sample re-runs outside the timed window, in-process, through the
	// same canonical encoding the service uses.
	for k, body := range samples {
		req := e.in.request(k)
		resp, err := server.RunDetect(context.Background(), req)
		var want []byte
		if err == nil {
			want, err = json.MarshalIndent(resp, "", "  ")
		}
		out.check(err == nil && bytes.Equal(append(want, '\n'), body),
			"detect request %d (%s/%d): in-process re-run differs from the response (err %v)", k, req.App, req.Seed, err)
	}

	out.metric("p50_ms", percentile(st.latMS, 0.5), "ms")
	out.metric("tail_ms", percentile(st.latMS, 0.95), "ms")
	out.metric("ops_per_s", float64(st.units)/st.window.Seconds(), "1/s")
	out.note("detect_p50_ms", percentile(st.latMS, 0.5), "ms")
	out.note("detect_p95_ms", percentile(st.latMS, 0.95), "ms")
	out.note("detect_rps", float64(st.units)/st.window.Seconds(), "1/s")
	out.note("detect_samples", float64(len(st.latMS)), "count")
	out.note("detect_samples_beyond_p95", float64(len(st.latMS))*0.05, "count")
	return out, nil
}
