// Command cordd is the CORD race-detection service: a long-running HTTP
// server that executes detection and replay sessions on a bounded worker
// pool (see internal/server for the API).
//
// Usage:
//
//	cordd -addr :8080 -workers 4 -queue 16 -timeout 60s -streams 8
//
// Endpoints: POST /v1/detect, POST /v1/replay, POST /v1/stream (streaming
// order-record ingestion with optional online race detection and duty
// cycling, PROTOCOL.md §4),
// POST /v1/campaign/plan and POST /v1/campaign/shard (distributed-campaign
// worker protocol, PROTOCOL.md §6 — a cordbench coordinator with -workers
// fans run shards across a fleet of these processes), POST
// /v1/fleet/register and GET /v1/fleet/workers (fleet membership, PROTOCOL.md
// §7), GET /healthz, GET /metrics. SIGINT/SIGTERM drain in-flight sessions —
// streams included — before the process exits.
//
// Fleet roles (PROTOCOL.md §7): every instance serves the fleet registry, so
// any one can be the registry other workers announce themselves to; `cordd
// -register http://reg:8080` joins that fleet, heartbeating its advertised URL
// (-advertise, derived from -addr when omitted) every -register-ttl/3 so a
// crashed worker expires from discovery within one TTL. The CORD_CHAOS
// worker-kill knob arms deterministic mid-campaign worker deaths for the
// fleet-chaos smoke test.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cord/internal/chaos"
	"cord/internal/server"
)

// validateFlags rejects out-of-domain service parameters before binding the
// socket, mirroring the other cord binaries: bad invocations exit 2 with
// usage instead of failing at the first request.
func validateFlags(workers, queue int, timeout, drain time.Duration, maxBody int64,
	streams int, streamIdle time.Duration, streamMaxBytes int64, streamMaxFrames uint64) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be at least 1 (or 0 for NumCPU)")
	}
	if queue < 1 {
		return fmt.Errorf("-queue must be at least 1")
	}
	if timeout <= 0 {
		return fmt.Errorf("-timeout must be positive")
	}
	if drain <= 0 {
		return fmt.Errorf("-drain must be positive")
	}
	if maxBody < 1 {
		return fmt.Errorf("-max-body must be at least 1 byte")
	}
	if streams < 1 {
		return fmt.Errorf("-streams must be at least 1")
	}
	if streamIdle <= 0 {
		return fmt.Errorf("-stream-idle must be positive")
	}
	if streamMaxBytes < 1 {
		return fmt.Errorf("-stream-max-bytes must be at least 1 byte")
	}
	if streamMaxFrames < 1 {
		return fmt.Errorf("-stream-max-frames must be at least 1")
	}
	return nil
}

// validateFleetFlags checks the §7 membership flags: -register and
// -advertise must be absolute http(s) URLs and the heartbeat TTL must fit
// the registry's accepted range.
func validateFleetFlags(register, advertise string, ttl time.Duration) error {
	for flagName, u := range map[string]string{"-register": register, "-advertise": advertise} {
		if u == "" {
			continue
		}
		p, err := url.Parse(u)
		if err != nil || (p.Scheme != "http" && p.Scheme != "https") || p.Host == "" {
			return fmt.Errorf("%s must be an absolute http(s) URL, got %q", flagName, u)
		}
	}
	if advertise != "" && register == "" {
		return fmt.Errorf("-advertise is only meaningful with -register")
	}
	if register != "" && (ttl < time.Second || ttl > 300*time.Second) {
		return fmt.Errorf("-register-ttl must be in [1s, 300s], got %v", ttl)
	}
	return nil
}

// advertiseURL derives the URL to announce when -advertise is not given:
// the listen address with a loopback host filled in for a bare ":port".
// Cross-host fleets must pass -advertise explicitly — a bind address is not
// necessarily reachable from the coordinator.
func advertiseURL(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// heartbeat announces the worker to the registry now and then every ttl/3
// until ctx is canceled, so two consecutive lost heartbeats still leave the
// registration alive. Failures are logged and retried on the next tick —
// a registry restart heals itself without worker intervention.
func heartbeat(ctx context.Context, client *http.Client, registry, advertise string, workers int, ttl time.Duration) {
	body, err := json.Marshal(server.FleetRegisterRequest{
		URL:        advertise,
		Workers:    workers,
		TTLSeconds: int(ttl / time.Second),
	})
	if err != nil { // a struct of strings and ints always marshals
		log.Printf("cordd: encoding registration: %v", err)
		return
	}
	beat := func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			registry+"/v1/fleet/register", bytes.NewReader(body))
		if err != nil {
			log.Printf("cordd: registering with %s: %v", registry, err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				log.Printf("cordd: heartbeat to %s failed: %v", registry, err)
			}
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Printf("cordd: heartbeat to %s answered %d", registry, resp.StatusCode)
		}
	}
	beat()
	tick := time.NewTicker(ttl / 3)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			beat()
		}
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "concurrent sessions (0 = NumCPU)")
		queue   = flag.Int("queue", 16, "queued sessions beyond the running ones")
		timeout = flag.Duration("timeout", 60*time.Second, "per-session execution timeout")
		drain   = flag.Duration("drain", 30*time.Second, "shutdown drain budget")
		maxBody = flag.Int64("max-body", 8<<20, "request body size limit in bytes")

		streams         = flag.Int("streams", 8, "concurrent /v1/stream sessions")
		streamIdle      = flag.Duration("stream-idle", 30*time.Second, "stream idle timeout (eviction with 408)")
		streamMaxBytes  = flag.Int64("stream-max-bytes", 256<<20, "per-stream byte quota")
		streamMaxFrames = flag.Uint64("stream-max-frames", 16<<20, "per-stream frame quota")

		register    = flag.String("register", "", "fleet registry base URL to announce this worker to (e.g. http://reg:8080)")
		advertise   = flag.String("advertise", "", "URL to announce to the registry (default: derived from -addr)")
		registerTTL = flag.Duration("register-ttl", 15*time.Second, "registration TTL; heartbeats fire every TTL/3")
	)
	flag.Parse()

	if err := validateFlags(*workers, *queue, *timeout, *drain, *maxBody,
		*streams, *streamIdle, *streamMaxBytes, *streamMaxFrames); err != nil {
		fmt.Fprintf(os.Stderr, "cordd: %v\n", err)
		flag.Usage()
		return 2
	}
	if err := validateFleetFlags(*register, *advertise, *registerTTL); err != nil {
		fmt.Fprintf(os.Stderr, "cordd: %v\n", err)
		flag.Usage()
		return 2
	}
	chaosSpec, err := chaos.FromEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordd: %v\n", err)
		return 2
	}

	srv := server.New(server.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		SessionTimeout:    *timeout,
		MaxBodyBytes:      *maxBody,
		MaxStreams:        *streams,
		StreamIdleTimeout: *streamIdle,
		MaxStreamBytes:    *streamMaxBytes,
		MaxStreamFrames:   *streamMaxFrames,
		Chaos:             chaosSpec,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if chaosSpec.Active() {
		log.Printf("cordd: %s", chaosSpec)
	}
	if *register != "" {
		adv := *advertise
		if adv == "" {
			adv = advertiseURL(*addr)
		}
		log.Printf("cordd: announcing %s to registry %s (ttl %v)", adv, *register, *registerTTL)
		go heartbeat(ctx, &http.Client{Timeout: 5 * time.Second},
			strings.TrimRight(*register, "/"), adv, srv.Metrics().Workers, *registerTTL)
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("cordd: listening on %s (workers=%d queue=%d timeout=%v)",
			*addr, srv.Metrics().Workers, *queue, *timeout)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure here (Shutdown is not yet
		// in play): bad address, occupied port, ...
		fmt.Fprintf(os.Stderr, "cordd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	log.Printf("cordd: signal received, draining (budget %v)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections and wait for in-flight handlers; handlers
	// in turn wait for their sessions, so this is the outer half of the
	// drain. Then retire the worker pool.
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "cordd: http shutdown: %v\n", err)
		return 1
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "cordd: %v\n", err)
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "cordd: %v\n", err)
		return 1
	}
	m := srv.Metrics()
	log.Printf("cordd: drained cleanly (%d sessions completed, %d rejected)",
		m.Sessions.Completed, m.Sessions.RejectedQueueFull+m.Sessions.RejectedDraining)
	return 0
}
