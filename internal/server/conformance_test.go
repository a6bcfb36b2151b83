package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cord/internal/record"
)

// PROTOCOL.md §6 and §7 declare their JSON examples to be verbatim wire
// bytes and promise that the test suite replays them. This test is that
// promise: it extracts every `<!-- conformance:... -->`-marked example from
// the spec, in document order, sends the requests against a real server, and
// byte-compares the responses. A drift between spec and implementation fails
// here, with instructions pointing at whichever side is wrong.
//
// Marker grammar (HTML comments immediately preceding a ```json fence):
//
//	<!-- conformance:request <name> <method> <path> -->
//	<!-- conformance:response <name> <status> -->
//	<!-- conformance:request <name> <method> <path> = <other> -->   (reuse <other>'s body)
//	<!-- conformance:response <name> <status> = <other> -->         (expect <other>'s body)
//	<!-- conformance:request <name> <method> <path> - -->           (no body: GET etc.)
//
// The `= other` and trailing `-` forms carry no fence: the former expresses
// idempotency ("re-sending the shard answers byte-identically") without
// duplicating a long example, the latter a body-less request.

type conformanceExample struct {
	name     string
	method   string
	path     string
	status   int
	request  []byte
	response []byte
}

// parseConformance walks the spec once, resolving `= other` references
// against earlier examples, and returns the examples in document order.
func parseConformance(t *testing.T, spec []byte) []conformanceExample {
	t.Helper()
	type pending struct {
		method, path string
		status       int
		body         []byte
	}
	requests := map[string]pending{}
	responses := map[string]pending{}
	var order []string

	sc := bufio.NewScanner(bytes.NewReader(spec))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	fenceAfter := func(i int) ([]byte, int) {
		for j := i + 1; j < len(lines); j++ {
			switch {
			case strings.TrimSpace(lines[j]) == "":
				continue
			case strings.TrimSpace(lines[j]) == "```json":
				var body bytes.Buffer
				for k := j + 1; k < len(lines); k++ {
					if strings.TrimSpace(lines[k]) == "```" {
						return body.Bytes(), k
					}
					body.WriteString(lines[k])
					body.WriteByte('\n')
				}
				t.Fatalf("PROTOCOL.md line %d: unterminated ```json fence", j+1)
			default:
				return nil, i
			}
		}
		return nil, i
	}

	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(line, "<!-- conformance:") || !strings.HasSuffix(line, "-->") {
			continue
		}
		fields := strings.Fields(strings.TrimSuffix(strings.TrimPrefix(line, "<!-- conformance:"), "-->"))
		if len(fields) < 2 {
			t.Fatalf("PROTOCOL.md line %d: malformed conformance marker %q", i+1, line)
		}
		kind, name := fields[0], fields[1]
		var ref string
		if n := len(fields); n >= 2 && fields[n-2] == "=" {
			ref = fields[n-1]
			fields = fields[:n-2]
		}
		noBody := false
		if n := len(fields); fields[n-1] == "-" {
			noBody = true
			fields = fields[:n-1]
		}
		var body []byte
		if ref == "" && !noBody {
			var end int
			body, end = fenceAfter(i)
			if body == nil {
				t.Fatalf("PROTOCOL.md line %d: conformance marker %q has no ```json fence", i+1, line)
			}
			i = end
		}
		switch kind {
		case "request":
			if len(fields) != 4 {
				t.Fatalf("PROTOCOL.md line %d: request marker wants `request <name> <method> <path>`, got %q", i+1, line)
			}
			if ref != "" {
				prev, ok := requests[ref]
				if !ok {
					t.Fatalf("PROTOCOL.md line %d: request %s references unknown example %q", i+1, name, ref)
				}
				body = prev.body
			}
			requests[name] = pending{method: fields[2], path: fields[3], body: body}
			order = append(order, name)
		case "response":
			if len(fields) != 3 {
				t.Fatalf("PROTOCOL.md line %d: response marker wants `response <name> <status>`, got %q", i+1, line)
			}
			status, err := strconv.Atoi(fields[2])
			if err != nil {
				t.Fatalf("PROTOCOL.md line %d: bad status in %q: %v", i+1, line, err)
			}
			if ref != "" {
				prev, ok := responses[ref]
				if !ok {
					t.Fatalf("PROTOCOL.md line %d: response %s references unknown example %q", i+1, name, ref)
				}
				body = prev.body
			}
			responses[name] = pending{status: status, body: body}
		default:
			t.Fatalf("PROTOCOL.md line %d: unknown conformance kind %q", i+1, kind)
		}
	}

	var examples []conformanceExample
	for _, name := range order {
		req := requests[name]
		resp, ok := responses[name]
		if !ok {
			t.Fatalf("conformance example %q has a request but no response marker", name)
		}
		examples = append(examples, conformanceExample{
			name: name, method: req.method, path: req.path,
			status: resp.status, request: req.body, response: resp.body,
		})
	}
	return examples
}

// TestProtocolConformance replays every marked §6 and §7 example against a
// real server, in document order (order matters: the conflict example depends
// on the shard example having registered its id first, and the §7 listing on
// the registrations before it).
//
// The server clock is frozen: §7's registry examples promise exact
// expires_in_seconds values, which lazy TTL pruning makes deterministic under
// a fixed now. The §7 progress resource is a coordinator endpoint, not a
// worker one, so the test mounts ProgressHandler over the spec's fixture
// snapshot beside the worker mux — exactly how cordbench serves it.
func TestProtocolConformance(t *testing.T) {
	spec, err := os.ReadFile(filepath.Join("..", "..", "PROTOCOL.md"))
	if err != nil {
		t.Fatalf("reading the spec: %v", err)
	}
	examples := parseConformance(t, spec)
	if len(examples) < 10 {
		t.Fatalf("found only %d conformance examples in PROTOCOL.md; the §6/§7 markers have been damaged", len(examples))
	}

	srv := New(Config{Workers: 2})
	srv.now = func() time.Time { return time.Unix(1700000000, 0) }
	mux := http.NewServeMux()
	mux.Handle("/v1/campaign/progress", ProgressHandler(func() CampaignProgress {
		return CampaignProgress{
			Campaign:       "paper-repro",
			Fingerprint:    "976adcbc7ab77749",
			CellsDone:      2,
			CellsTotal:     3,
			ShardsRequeued: 2,
			Workers: []ProgressWorker{
				{URL: "http://worker-b:8080", Health: WorkerDead, LatencyEwmaMs: 40},
				{URL: "http://worker-a:8080", Health: WorkerLive, ShardsDone: 1, ShardsInFlight: 1, LatencyEwmaMs: 12.5},
			},
		}
	}))
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, ex := range examples {
		t.Run(ex.name, func(t *testing.T) {
			req, err := http.NewRequest(ex.method, ts.URL+ex.path, bytes.NewReader(ex.request))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != ex.status {
				t.Fatalf("%s %s: status %d, spec says %d\nbody: %s", ex.method, ex.path, resp.StatusCode, ex.status, body)
			}
			if !bytes.Equal(body, ex.response) {
				t.Fatalf("%s %s: response differs from the PROTOCOL.md §6 example.\nIf the spec changed deliberately, regenerate the example bytes; if not, the implementation drifted.\ngot:\n%swant:\n%s%s",
					ex.method, ex.path, body, ex.response, diffHint(body, ex.response))
			}
		})
	}
}

// diffHint points at the first differing byte to spare eyeballing two long
// JSON documents.
func diffHint(got, want []byte) string {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := max(0, i-30)
			return fmt.Sprintf("\nfirst difference at byte %d: got %q, want %q", i, got[lo:min(len(got), i+10)], want[lo:min(len(want), i+10)])
		}
	}
	return fmt.Sprintf("\nbodies share a %d-byte prefix but differ in length (%d vs %d)", n, len(got), len(want))
}

// TestOrderViolationWireText pins the order_violation error body (PROTOCOL.md
// §3 and §5) on every path that checks the §3 invariants: /v1/stream offline,
// with detect=online at duty 0 and duty 100, and one-shot /v1/replay. The
// status, the code and the exact message text — entry index included — must
// agree, so a change to any one check's wording or indexing shows here. A
// failed stream closes its connection (§4.3), so the next request never
// lands on a connection the server is abandoning.
func TestOrderViolationWireText(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer shutdownOrFail(t, srv)

	wire := func(entries ...record.Entry) []byte {
		var l record.Log
		for _, e := range entries {
			l.Append(e)
		}
		var buf bytes.Buffer
		if err := l.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Each log's expected message on the stream paths and on /v1/replay.
	logs := []struct {
		name           string
		body           []byte
		stream, replay string
	}{
		{"thread out of range", wire(
			record.Entry{Clock: 1, Thread: 0, Instr: 1},
			record.Entry{Clock: 2, Thread: 1, Instr: 1},
			record.Entry{Clock: 3, Thread: 5, Instr: 1},
		),
			"record: order invariant violated: entry 2 names thread 5, have 4 threads",
			"record: order invariant violated: entry 2 names thread 5, have 4 threads"},
		{"clock regressed", wire(
			record.Entry{Clock: 30000, Thread: 0, Instr: 1},
			record.Entry{Clock: 5, Thread: 1, Instr: 2},
			record.Entry{Clock: 100, Thread: 0, Instr: 1}, // delta 36636 > window
		),
			"record: order invariant violated: entry 2 clock regressed for thread 0",
			"record: order invariant violated: entry 2 clock regressed for thread 0"},
	}
	paths := []struct {
		name, path string
		stream     bool
	}{
		{"stream verify=0", "/v1/stream?app=fft&threads=4&verify=0", true},
		{"stream duty=0", "/v1/stream?app=fft&threads=4&verify=0&detect=online&duty=0", true},
		{"stream duty=100", "/v1/stream?app=fft&threads=4&verify=0&detect=online&duty=100", true},
		{"replay", "/v1/replay?app=fft&threads=4", false},
	}
	for _, lg := range logs {
		for _, p := range paths {
			t.Run(lg.name+"/"+p.name, func(t *testing.T) {
				var body io.Reader = bytes.NewReader(lg.body)
				if p.stream {
					body = &chunkedReader{r: body, n: 5}
				}
				resp, err := http.Post(ts.URL+p.path, "application/octet-stream", body)
				if err != nil {
					t.Fatal(err)
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				want := lg.replay
				if p.stream {
					want = lg.stream
				}
				var eb errorBody
				if err := json.Unmarshal(b, &eb); err != nil {
					t.Fatalf("error body is not JSON: %v (%s)", err, b)
				}
				if resp.StatusCode != http.StatusUnprocessableEntity || eb.Schema != SchemaVersion ||
					eb.Code != codeOrderViolation || eb.Error != want {
					t.Fatalf("got %d %+v, want 422 {schema %d code %q error %q}",
						resp.StatusCode, eb, SchemaVersion, codeOrderViolation, want)
				}
				if p.stream && !resp.Close {
					t.Fatal("failed stream left its connection open")
				}
			})
		}
	}
}
