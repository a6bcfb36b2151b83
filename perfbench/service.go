package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cord/internal/server"
)

// clients is the closed-loop client count of the detect and stream
// workloads: one per core of the 2-core reference machine, each waiting for
// its reply before sending the next request, as cordload does.
const clients = 2

// service is an in-process cordd behind a loopback HTTP listener.
type service struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func startService() *service {
	srv := server.New(server.Config{})
	return &service{
		srv: srv,
		ts:  httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
}

// close stops the listener and drains the server; the error is Shutdown's.
func (s *service) close() error {
	s.client.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// post sends one request and returns the response body of a 200.
func (s *service) post(path, contentType string, body io.Reader) ([]byte, error) {
	resp, err := s.client.Post(s.ts.URL+path, contentType, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// detect posts one /v1/detect request and returns the raw response body.
func (s *service) detect(req server.DetectRequest) ([]byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return s.post("/v1/detect", "application/json", bytes.NewReader(b))
}

// stream uploads body to /v1/stream?query in chunkBytes chunks and returns the
// end-of-stream summary. Progress frames ahead of the summary are skipped; an
// error frame fails the session (PROTOCOL.md §4.7).
func (s *service) stream(query string, body []byte) (*server.StreamResponse, error) {
	b, err := s.post("/v1/stream?"+query, "application/octet-stream", &chunkReader{rest: body})
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	var summary json.RawMessage
	for {
		var doc json.RawMessage
		if err := dec.Decode(&doc); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("stream response: %w", err)
		}
		var frame struct {
			Frame string `json:"frame"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(doc, &frame); err != nil {
			return nil, fmt.Errorf("stream response: %w", err)
		}
		switch frame.Frame {
		case "":
			summary = doc
		case "error":
			return nil, fmt.Errorf("stream error frame: %s", frame.Error)
		}
	}
	if summary == nil {
		return nil, errors.New("stream response: no summary")
	}
	var sr server.StreamResponse
	if err := json.Unmarshal(summary, &sr); err != nil {
		return nil, fmt.Errorf("stream summary: %w", err)
	}
	return &sr, nil
}

// chunkReader hands out its bytes at most chunkBytes per Read, so the client
// uploads a chunked body in chunks of that size.
type chunkReader struct{ rest []byte }

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), chunkBytes)], r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

// loopStats is the outcome of one closed loop.
type loopStats struct {
	latMS     []float64 // latency of each successful operation
	units     int64     // work units (requests, entries) of successful operations
	attempted int
	failed    int
	window    time.Duration
	firstErr  error
}

// add merges the stats of a later loop over the same phase.
func (s *loopStats) add(o loopStats) {
	s.latMS = append(s.latMS, o.latMS...)
	s.units += o.units
	s.attempted += o.attempted
	s.failed += o.failed
	s.window += o.window
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// closedLoop runs op from clients goroutines until d has elapsed; each client
// sends its next operation only after the previous one completed. op(k) runs
// the k-th operation of the shared sequence and returns its work units.
func closedLoop(d time.Duration, op func(k int) (int64, error)) loopStats {
	var (
		next atomic.Int64
		mu   sync.Mutex
		st   loopStats
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				t0 := time.Now()
				units, err := op(k)
				lat := ms(time.Since(t0))
				mu.Lock()
				st.attempted++
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
				} else {
					st.latMS = append(st.latMS, lat)
					st.units += units
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.window = time.Since(start)
	return st
}

// settled waits up to five seconds for the goroutine count to return to
// base, and reports whether it did.
func settled(base int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}
