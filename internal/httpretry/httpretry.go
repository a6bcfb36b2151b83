// Package httpretry is the one place the repository decides how long to
// back off before a retry. Two clients speak to cordd — cordload's load
// sweeps and cordbench's fleet dispatcher — and both must honor the
// service's 429/`Retry-After` contract (PROTOCOL.md §4.2) identically:
// delta-seconds and HTTP-date wire forms, a past HTTP-date meaning "retry
// now" rather than "back off", and a doubling fallback only when the header
// is absent or unparseable. The logic used to be duplicated per caller;
// a past-date clamp bug fixed in one copy and not the other is exactly the
// kind of drift this package exists to prevent.
package httpretry

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Policy bounds how a client retries one throttled or transiently failing
// request: up to Attempts tries (the first counts), sleeping the server's
// Retry-After hint — or a doubling fallback starting at Fallback when there
// is no usable hint — between them, every sleep clamped to [0, Cap].
type Policy struct {
	// Attempts is the total try budget per request, first attempt included:
	// Attempts 3 means one try plus at most two retries.
	Attempts int
	// Fallback seeds the doubling backoff used when a response carries no
	// parseable Retry-After header.
	Fallback time.Duration
	// Cap bounds any single sleep, whatever its source.
	Cap time.Duration
	// Jitter spreads the doubling fallback downward by up to this fraction,
	// deterministically keyed on (key, attempt) — see BackoffKeyed. Zero
	// disables jitter. Server-provided Retry-After hints are never jittered:
	// the server asked for that delay.
	Jitter float64
}

// RetryAfterKeyed converts one response's Retry-After header into the
// sleep before the next try. Both wire forms are honored — delta-seconds
// and HTTP-date — and a missing or malformed header falls back to
// BackoffKeyed(key, attempt) (attempt is 1-based). Every result is clamped
// to [0, p.Cap].
//
// A parsed HTTP-date that is already in the past — which happens routinely
// when the server's clock runs behind the client's — means "retry now" and
// clamps to zero. Only an absent or unparseable header earns the doubling
// fallback; conflating the two made a skewed but well-behaved server look
// like one asking for ever-longer backoff. A parsed header is honored
// verbatim (clamped to Cap), never jittered: jitter exists to
// de-synchronize clients that got no server guidance, not to second-guess
// clients that did.
func (p Policy) RetryAfterKeyed(header, key string, attempt int) time.Duration {
	var d time.Duration
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	} else if at, err := http.ParseTime(header); err == nil {
		if d = time.Until(at); d < 0 {
			d = 0
		}
	} else {
		return p.BackoffKeyed(key, attempt)
	}
	if d > p.Cap {
		d = p.Cap
	}
	return d
}

// BackoffKeyed is the fallback schedule alone — the sleep before try
// attempt+1 when there is no server hint at all (transport errors,
// responses without a Retry-After header): Fallback doubled per completed
// attempt, clamped to [0, Cap]. It equals RetryAfterKeyed with an empty
// header and exists so call sites retrying non-429 failures don't fabricate
// a fake header to say so.
//
// The delay carries deterministic de-synchronizing jitter: it is shrunk by
// up to Jitter (a fraction of the delay) drawn from an FNV-1a hash of
// (key, attempt). Callers key on something that differs between clients
// racing the same event — the request URL is the natural choice — so that a
// re-shard storm after a worker death does not march every survivor's
// retries into the fleet in lockstep.
//
// Jitter is subtractive, never additive: the result always stays within
// [d·(1−Jitter), d] for the unjittered delay d, so the documented [0, Cap]
// bound holds and — unlike additive jitter — delays pinned at Cap still
// spread out instead of re-synchronizing at the clamp. The draw is a pure
// function of (key, attempt): retry schedules reproduce exactly under test
// and across process restarts, the same determinism-by-hashing idiom the
// chaos injector uses.
func (p Policy) BackoffKeyed(key string, attempt int) time.Duration {
	d := p.Fallback
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.Cap {
			break
		}
	}
	if d > p.Cap {
		d = p.Cap
	}
	if p.Jitter > 0 && d > 0 {
		span := time.Duration(p.Jitter * float64(d))
		if span > 0 {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%d", key, attempt)
			d -= time.Duration(h.Sum64() % uint64(span+1))
		}
	}
	return d
}
