// Command cordload drives a running cordd with a concurrent-client sweep
// and reports throughput and latency per stage — the load-testing workflow
// of EXPERIMENTS.md. Everything it sends travels over HTTP in the service's
// formats (JSON bodies and the PROTOCOL.md binary log), but it is not a
// version-independent client: it shares the server package's wire types
// (DetectRequest, CampaignProgress), so it speaks the formats of the cordd
// built from the same revision. The one in-process run is -duty's, which
// records a real order log with the engine (internal/replay) so the online
// replay has a run to follow.
//
// Usage:
//
//	cordd -addr :8080 &
//	cordload -addr http://127.0.0.1:8080 -sweep 1,2,4,8 -n 32 -app fft
//	cordload -addr http://127.0.0.1:8080 -stream -sweep 1,2,4 -n 8 -frames 200000
//
// Each stage issues -n detect sessions (seeds base, base+1, ...) from the
// stage's client count and prints wall-clock, requests/s and latency
// quantiles. A 429 is backpressure, not failure: the client honors the
// server's Retry-After hint (capped at -retry-cap) and retries the session
// up to -retries attempts, counting retries separately so pushback stays
// visible in the summary. Any other failure is a hard error, and a sweep
// with hard errors in any stage exits 1. The final section echoes the
// server's /metrics session counters.
//
// With -stream, the sweep drives POST /v1/stream instead: every session
// uploads a synthetic order log of -frames wire-format entries in chunked
// pieces (verify=0, so the measurement is pure ingest, not detection
// re-execution) and each stage reports sustained records/sec.
//
// With -stream -duty "0,50,100", the sweep instead measures online race
// detection (PROTOCOL.md §4.7): a real order log is recorded in-process
// (the synthetic stream corresponds to no actual run, so the online replay
// would just diverge), then streamed with detect=online at each duty point.
// The duty=0 row is the ingest baseline; duty=100 prices full mid-stream
// detection.
//
// With -progress http://coordinator:9090, cordload instead follows a running
// distributed campaign: it polls the coordinator's GET /v1/campaign/progress
// resource (PROTOCOL.md §7, served by cordbench -progress-addr) every
// -progress-interval and prints one status line per poll — cells done, shard
// requeues, per-worker health — exiting 0 once the campaign reports
// complete (or the coordinator, its work done, goes away).
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"cord/internal/httpretry"
	"cord/internal/replay"
	"cord/internal/server"
	"cord/internal/workload"
)

// parseList parses the comma-separated integer list of flag -name, each
// entry in [lo, hi].
func parseList(name, s string, lo, hi int) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-%s must name at least one value", name)
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		switch {
		case err != nil:
			return nil, fmt.Errorf("-%s entry %q: %v", name, part, err)
		case v < lo:
			return nil, fmt.Errorf("-%s entry %d: below the minimum %d", name, v, lo)
		case v > hi:
			return nil, fmt.Errorf("-%s entry %d: above the maximum %d", name, v, hi)
		}
		out = append(out, v)
	}
	return out, nil
}

// validateFlags rejects out-of-domain load parameters up front (exit 2 +
// usage), like every other cord binary.
func validateFlags(n, scale, threads, d, retries int, retryCap time.Duration) error {
	if n < 1 {
		return fmt.Errorf("-n must be at least 1")
	}
	if threads > 1<<16-1 {
		return fmt.Errorf("-threads must fit the wire format's 16-bit thread id")
	}
	if scale < 1 {
		return fmt.Errorf("-scale must be at least 1")
	}
	if threads < 1 {
		return fmt.Errorf("-threads must be at least 1")
	}
	if d < 1 {
		return fmt.Errorf("-d must be at least 1")
	}
	if retries < 1 {
		return fmt.Errorf("-retries must be at least 1 (the first attempt counts)")
	}
	if retryCap <= 0 {
		return fmt.Errorf("-retry-cap must be positive")
	}
	return nil
}

type stageResult struct {
	ok        int
	retries   int // 429 responses that were retried after Retry-After
	errors    int
	wall      time.Duration
	latencies []time.Duration
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "base URL of the cordd to load")
		app      = flag.String("app", "fft", "application for the detect sessions")
		seed     = flag.Uint64("seed", 1, "base seed; request i uses seed+i")
		scale    = flag.Int("scale", 1, "workload scale factor")
		threads  = flag.Int("threads", 4, "simulated threads")
		d        = flag.Int("d", 16, "CORD sync-read window D")
		n        = flag.Int("n", 32, "requests per sweep stage")
		sweep    = flag.String("sweep", "1,2,4,8", "comma-separated concurrent-client counts")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-request client timeout")
		retries  = flag.Int("retries", 5, "attempts per session before a 429 becomes a hard error")
		retryCap = flag.Duration("retry-cap", 5*time.Second, "upper bound on one Retry-After sleep")
		stream   = flag.Bool("stream", false, "drive POST /v1/stream sessions instead of /v1/detect")
		frames   = flag.Int("frames", 200000, "order-record frames per stream session (with -stream)")
		chunk    = flag.Int("chunk", 64<<10, "upload chunk size in bytes (with -stream)")
		duty     = flag.String("duty", "", "comma-separated duty percentages: sweep detect=online at each (with -stream)")

		progressURL = flag.String("progress", "", "poll this coordinator's GET /v1/campaign/progress until the campaign completes (PROTOCOL.md §7)")
		progressInt = flag.Duration("progress-interval", time.Second, "poll cadence for -progress")
	)
	flag.Parse()

	if *progressURL != "" {
		if *progressInt <= 0 {
			fmt.Fprintf(os.Stderr, "cordload: -progress-interval must be positive\n")
			flag.Usage()
			return 2
		}
		return watchProgress(&http.Client{Timeout: *timeout}, *progressURL, *progressInt)
	}

	if err := validateFlags(*n, *scale, *threads, *d, *retries, *retryCap); err != nil {
		fmt.Fprintf(os.Stderr, "cordload: %v\n", err)
		flag.Usage()
		return 2
	}
	if *stream && (*frames < 1 || *chunk < 1) {
		fmt.Fprintf(os.Stderr, "cordload: -frames and -chunk must be at least 1\n")
		flag.Usage()
		return 2
	}
	stages, err := parseList("sweep", *sweep, 1, math.MaxInt)
	var duties []int
	if err == nil && *stream && *duty != "" {
		duties, err = parseList("duty", *duty, 0, 100)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordload: %v\n", err)
		flag.Usage()
		return 2
	}

	client := &http.Client{Timeout: *timeout}
	if _, err := fetch(client, *addr+"/healthz"); err != nil {
		fmt.Fprintf(os.Stderr, "cordload: server not healthy: %v\n", err)
		return 1
	}

	// Jittered per session key, so a stage's worth of throttled clients does
	// not re-dogpile the server on the same fallback schedule.
	policy := httpretry.Policy{Attempts: *retries, Fallback: 250 * time.Millisecond, Cap: *retryCap, Jitter: 0.5}
	var t sweepTable
	switch {
	case !*stream:
		t = sweepTable{clients: "clients", rate: "req/s", unit: 1, prec: 1, series: []series{{
			post: detectPost(client, *addr, server.DetectRequest{App: *app, Seed: *seed, Scale: *scale, Threads: *threads, D: *d}),
		}}}
	case duties == nil:
		body := syntheticStream(*frames, *threads)
		fmt.Printf("streaming %d sessions/stage, %d frames (%d bytes) each, chunk %d\n",
			*n, *frames, len(body), *chunk)
		url := fmt.Sprintf("%s/v1/stream?app=%s&seed=%d&threads=%d&verify=0", *addr, *app, *seed, *threads)
		t = sweepTable{clients: "streams", rate: "records/s", unit: float64(*frames),
			series: []series{{post: streamPost(client, url, body, *chunk)}}}
	default:
		// Online replay needs a log that corresponds to an actual run; the
		// synthetic stream does not.
		body, recorded, err := recordedStream(*app, *seed, *scale, *threads)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cordload: %v\n", err)
			return 1
		}
		fmt.Printf("online sweep: %d sessions/stage, recorded fixture %d frames (%d bytes), chunk %d, duties %v\n",
			*n, recorded, len(body), *chunk, duties)
		t = sweepTable{group: "duty", clients: "streams", rate: "records/s", unit: float64(recorded)}
		for _, duty := range duties {
			url := fmt.Sprintf("%s/v1/stream?app=%s&seed=%d&scale=%d&threads=%d&verify=0&detect=online&duty=%d",
				*addr, *app, *seed, *scale, *threads, duty)
			t.series = append(t.series, series{label: strconv.Itoa(duty), post: streamPost(client, url, body, *chunk)})
		}
	}
	return runSweep(client, *addr, stages, *n, policy, t)
}

// sweepTable is one sweep's sessions and the shape of its output table.
type sweepTable struct {
	group   string  // leading column naming each series ("duty"); empty for one series
	clients string  // header of the client-count column
	rate    string  // header of the throughput column
	unit    float64 // work units per successful session: 1 request, or a stream's frames
	prec    int     // decimals of the throughput column
	series  []series
}

// series is one group of stages: its value in the group column and the
// POST that issues session i.
type series struct {
	label string
	post  func(i int64) (*http.Response, error)
}

// runSweep runs one stage per client count for each series, prints a row
// per stage, then echoes the server's /metrics. Any stage with hard errors
// makes the sweep exit 1, as does a failed /metrics fetch.
func runSweep(client *http.Client, addr string, stages []int, n int, policy httpretry.Policy, t sweepTable) int {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	head := t.clients + "\tok\tretries\terrors\twall\t" + t.rate + "\tp50\tp95\tmax"
	if t.group != "" {
		head = t.group + "\t" + head
	}
	fmt.Fprintln(w, head)
	exit := 0
	for _, s := range t.series {
		col, where := "", ""
		if t.group != "" {
			col, where = s.label+"\t", t.group+" "+s.label+" "
		}
		for _, c := range stages {
			res := runStage(addr, c, n, policy, s.post)
			slices.Sort(res.latencies)
			fmt.Fprintf(w, "%s%d\t%d\t%d\t%d\t%.2fs\t%.*f\t%s\t%s\t%s\n",
				col, c, res.ok, res.retries, res.errors, res.wall.Seconds(),
				t.prec, float64(res.ok)*t.unit/res.wall.Seconds(),
				quantile(res.latencies, 0.50).Round(time.Millisecond),
				quantile(res.latencies, 0.95).Round(time.Millisecond),
				quantile(res.latencies, 1.00).Round(time.Millisecond))
			w.Flush()
			if res.errors > 0 {
				fmt.Fprintf(os.Stderr, "cordload: %sstage %d finished with %d hard errors\n", where, c, res.errors)
				exit = 1
			}
		}
	}

	metrics, err := fetch(client, addr+"/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordload: fetching /metrics: %v\n", err)
		return 1
	}
	fmt.Println("\nserver /metrics after the sweep:")
	os.Stdout.Write(metrics)
	return exit
}

// runStage issues sessions 0..n-1 through post from c concurrent clients.
// 429 responses retry under the stage's policy, jittered per session; a
// session that stays throttled through every attempt, or fails any other
// way, counts as one hard error.
func runStage(addr string, c, n int, policy httpretry.Policy, post func(i int64) (*http.Response, error)) stageResult {
	var res stageResult
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < c; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				for attempt := 1; ; attempt++ {
					t0 := time.Now()
					resp, err := post(i)
					lat := time.Since(t0)
					throttled := false
					var sleep time.Duration
					mu.Lock()
					switch {
					case err != nil:
						res.errors++
					case resp.StatusCode == http.StatusOK:
						res.ok++
						res.latencies = append(res.latencies, lat)
					case resp.StatusCode == http.StatusTooManyRequests && attempt < policy.Attempts:
						res.retries++
						throttled = true
						sleep = policy.RetryAfterKeyed(resp.Header.Get("Retry-After"),
							fmt.Sprintf("%s|%d", addr, i), attempt)
					default: // non-429 failure, or throttled out of attempts
						res.errors++
					}
					mu.Unlock()
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					if !throttled {
						break
					}
					time.Sleep(sleep)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// detectPost posts detect session i: base with seed base.Seed+i, so every
// session is distinct work.
func detectPost(client *http.Client, addr string, base server.DetectRequest) func(int64) (*http.Response, error) {
	return func(i int64) (*http.Response, error) {
		req := base
		req.Seed += uint64(i)
		body, _ := json.Marshal(req)
		return client.Post(addr+"/v1/detect", "application/json", bytes.NewReader(body))
	}
}

// streamPost uploads the same order-log body for every session, in reads of
// at most chunk bytes.
func streamPost(client *http.Client, url string, body []byte, chunk int) func(int64) (*http.Response, error) {
	return func(int64) (*http.Response, error) {
		return client.Post(url, "application/octet-stream", &chunkReader{r: bytes.NewReader(body), n: chunk})
	}
}

// syntheticStream builds one wire-format order log (PROTOCOL.md §2) of the
// requested frame count: threads take turns, each thread's clock advances by
// one per round, so the stream satisfies the per-thread ordering invariants
// any real recording has. Built once per sweep and shared read-only by every
// session.
func syntheticStream(frames, threads int) []byte {
	b := make([]byte, 16+8*frames)
	copy(b[0:4], "CORD")
	binary.LittleEndian.PutUint32(b[4:8], 1)
	binary.LittleEndian.PutUint64(b[8:16], uint64(frames))
	off := 16
	for i := 0; i < frames; i++ {
		binary.LittleEndian.PutUint16(b[off:], uint16(i/threads))   // clock
		binary.LittleEndian.PutUint16(b[off+2:], uint16(i%threads)) // thread
		binary.LittleEndian.PutUint32(b[off+4:], 100)               // instr
		off += 8
	}
	return b
}

// chunkReader hides the body's length (forcing chunked transfer encoding)
// and caps every Read at n bytes, so the server ingests the session the way
// a live recorder would deliver it: incrementally.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// recordedStream records a real order log in-process (the engine with a
// recording CORD detector, the exact configuration /v1/detect re-executes)
// and returns its wire bytes plus the frame count. Online replay needs a log
// that corresponds to an actual run; the synthetic stream does not.
func recordedStream(appName string, seed uint64, scale, threads int) ([]byte, int, error) {
	app, err := workload.ByName(appName)
	if err != nil {
		return nil, 0, err
	}
	out, err := replay.RecordAndReplay(app.Build(scale, threads), replay.Options{Seed: seed, Jitter: 7})
	if err != nil {
		return nil, 0, err
	}
	if !out.Match {
		return nil, 0, fmt.Errorf("recording fixture: %s", out.Mismatch)
	}
	var buf bytes.Buffer
	if err := out.Log.EncodeTo(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), out.Log.Len(), nil
}

// watchProgress polls a coordinator's campaign-progress resource until the
// campaign reports every cell done. The coordinator serves the resource only
// while it dispatches, so once at least one poll has succeeded, a vanished
// endpoint means the campaign ended — reported as such, exit 0. A coordinator
// that never answers is exit 1.
func watchProgress(client *http.Client, base string, interval time.Duration) int {
	url := strings.TrimRight(base, "/")
	if !strings.HasSuffix(url, "/v1/campaign/progress") {
		url += "/v1/campaign/progress"
	}
	seen := false
	for {
		b, err := fetch(client, url)
		if err != nil {
			if seen {
				fmt.Printf("coordinator at %s gone; campaign ended\n", base)
				return 0
			}
			fmt.Fprintf(os.Stderr, "cordload: polling %s: %v\n", url, err)
			return 1
		}
		var p server.CampaignProgress
		if err := json.Unmarshal(b, &p); err != nil {
			fmt.Fprintf(os.Stderr, "cordload: unparsable progress from %s: %v\n", url, err)
			return 1
		}
		if !seen {
			fmt.Printf("campaign %s (fingerprint %s): %d cells\n", p.Campaign, p.Fingerprint, p.CellsTotal)
			seen = true
		}
		healths := map[string]int{}
		for _, w := range p.Workers {
			healths[w.Health]++
		}
		fmt.Printf("%d/%d cells  workers live=%d suspect=%d dead=%d  requeued=%d\n",
			p.CellsDone, p.CellsTotal, healths["live"], healths["suspect"], healths["dead"],
			p.ShardsRequeued)
		if p.CellsTotal > 0 && p.CellsDone >= p.CellsTotal {
			fmt.Println("campaign complete")
			return 0
		}
		time.Sleep(interval)
	}
}

func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}
