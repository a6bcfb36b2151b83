package main

import (
	"fmt"
	"net/url"
	"time"

	"cord/internal/server"
)

// The stream workload runs three closed-loop phases on /v1/stream, each a
// third of the run:
//
//	ingest  synthetic order logs, verify=0: decode, shard fold and hash only
//	duty0   the same logs with detect=online&duty=0: plus the epoch stream
//	online  logs of real runs with detect=online&duty=100: plus the replay engine
//
// ingest and duty0 never enter the engine, so they are the no-change control
// for engine work.

// synthApp names the app of the synthetic sessions; with verify=0 and duty=0
// the server never runs it.
const synthApp = "fft"

func ingestQuery(online bool) string {
	q := url.Values{"app": {synthApp}, "threads": {fmt.Sprint(simThreads)}, "verify": {"0"}}
	if online {
		q.Set("detect", "online")
		q.Set("duty", "0")
	}
	return q.Encode()
}

func onlineQuery(r recording) string {
	q := url.Values{
		"app": {r.app}, "seed": {fmt.Sprint(r.seed)}, "threads": {fmt.Sprint(simThreads)},
		"verify": {"0"}, "detect": {"online"}, "duty": {"100"},
	}
	if r.injectThread >= 0 {
		q.Set("inject_thread", fmt.Sprint(r.injectThread))
		q.Set("inject_nth", fmt.Sprint(r.injectNth))
	}
	return q.Encode()
}

// checkSummary verifies what every session of log l must report.
func checkSummary(sr *server.StreamResponse, l encodedLog) error {
	if sr.Schema != server.SchemaVersion || sr.Frames != uint64(l.entries) || sr.LogHash != l.hash {
		return fmt.Errorf("stream summary: schema %d, %d frames, hash %s; want %d frames, hash %s",
			sr.Schema, sr.Frames, sr.LogHash, l.entries, l.hash)
	}
	return nil
}

// ingestSession streams synthetic log l, with detect=online&duty=0 if duty0.
func ingestSession(svc *service, l encodedLog, duty0 bool) error {
	sr, err := svc.stream(ingestQuery(duty0), l.body)
	if err != nil {
		return err
	}
	if err := checkSummary(sr, l); err != nil {
		return err
	}
	switch {
	case !duty0 && sr.Online != nil:
		return fmt.Errorf("ingest session reported an online block")
	case duty0 && (sr.Online == nil || !sr.Online.Completed || sr.Online.Duty != 0 ||
		sr.Online.EpochsTotal != uint64(l.entries)):
		return fmt.Errorf("duty0 session: online block %+v, want completed, duty 0, %d epochs", sr.Online, l.entries)
	}
	return nil
}

// onlineSession streams recording r at duty=100; the replay must complete
// and find the recording run's CORD races.
func onlineSession(svc *service, r recording) error {
	sr, err := svc.stream(onlineQuery(r), r.body)
	if err != nil {
		return err
	}
	if err := checkSummary(sr, r.encodedLog); err != nil {
		return err
	}
	if o := sr.Online; o == nil || !o.Completed || o.RacyAccesses != r.races {
		return fmt.Errorf("online session %s/%d: online block %+v, want completed with %d racy accesses",
			r.app, r.seed, o, r.races)
	}
	return nil
}

// sliceSeconds is the length of one phase slice of the stream workload.
const sliceSeconds = 1

func runStream(e *env) (*outcome, error) {
	out := newOutcome()
	in := e.in

	// The phases rotate in short slices rather than running once each, so
	// every phase samples the whole run and a slow stretch of the host hits
	// all three alike. Each phase continues its own input sequence.
	var ingest, duty0, online loopStats
	var next [3]int
	slice := sliceSeconds * time.Second
	rounds := max(1, int(e.seconds/(3*slice)))
	for r := 0; r < rounds; r++ {
		ingest.add(closedLoop(slice, func(k int) (int64, error) {
			l := in.synth[(next[0]+k)%len(in.synth)]
			return int64(l.entries), ingestSession(e.svc, l, false)
		}))
		next[0] = ingest.attempted
		duty0.add(closedLoop(slice, func(k int) (int64, error) {
			l := in.synth[(next[1]+k)%len(in.synth)]
			return int64(l.entries), ingestSession(e.svc, l, true)
		}))
		next[1] = duty0.attempted
		online.add(closedLoop(slice, func(k int) (int64, error) {
			return 1, onlineSession(e.svc, in.online[(next[2]+k)%len(in.online)])
		}))
		next[2] = online.attempted
	}
	for _, st := range []loopStats{ingest, duty0, online} {
		out.count(st.attempted, st.failed, st.firstErr)
	}

	rate := func(st loopStats) float64 { return float64(st.units) / st.window.Seconds() }
	out.metric("p50_ms", percentile(online.latMS, 0.5), "ms")
	out.metric("tail_ms", percentile(online.latMS, 0.9), "ms")
	// Records per second when every record is ingested once in each mode:
	// the harmonic mean of the two rates, so neither phase drowns the other.
	out.metric("ops_per_s", 2/(1/rate(ingest)+1/rate(duty0)), "1/s")
	out.note("ingest_mrec_per_s", rate(ingest)/1e6, "Mrec/s")
	out.note("duty0_mrec_per_s", rate(duty0)/1e6, "Mrec/s")
	out.note("online_p50_ms", percentile(online.latMS, 0.5), "ms")
	out.note("online_p90_ms", percentile(online.latMS, 0.9), "ms")
	out.note("ingest_sessions", float64(len(ingest.latMS)), "count")
	out.note("duty0_sessions", float64(len(duty0.latMS)), "count")
	out.note("online_sessions", float64(len(online.latMS)), "count")
	out.note("stream_rounds", float64(rounds), "count")
	out.note("online_recordings_redrawn", float64(in.redrawn), "count")
	return out, nil
}
