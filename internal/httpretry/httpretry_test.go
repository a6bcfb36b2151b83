package httpretry

import (
	"net/http"
	"testing"
	"time"
)

// TestRetryAfter: both wire forms of Retry-After are honored, malformed and
// missing headers fall back to doubling backoff, and everything clamps to
// [0, cap]. The past-HTTP-date row is the regression under test: a server
// whose clock runs behind the client's sends dates that are already in the
// past, which must mean "retry now" (zero sleep) — not drop into the
// doubling fallback as if the header were garbage.
func TestRetryAfter(t *testing.T) {
	p := Policy{Attempts: 5, Fallback: 100 * time.Millisecond, Cap: 2 * time.Second}
	future := time.Now().Add(time.Minute).UTC().Format(http.TimeFormat)
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	cases := []struct {
		name    string
		header  string
		attempt int
		want    time.Duration
	}{
		{"delta-seconds", "1", 1, time.Second},
		{"delta-seconds with spaces", " 1 ", 1, time.Second},
		{"delta-seconds zero", "0", 1, 0},
		{"delta-seconds over cap", "30", 1, p.Cap},
		{"future HTTP-date clamps to cap", future, 1, p.Cap},
		{"past HTTP-date clamps to zero", past, 1, 0},
		{"past HTTP-date late attempt still zero", past, 4, 0},
		{"missing header attempt 1", "", 1, p.Fallback},
		{"malformed header attempt 2", "garbage", 2, 2 * p.Fallback},
		{"negative delta-seconds is malformed", "-5", 1, p.Fallback},
		{"missing header attempt 10 caps", "", 10, p.Cap},
	}
	for _, tc := range cases {
		if d := p.RetryAfterKeyed(tc.header, "", tc.attempt); d != tc.want {
			t.Errorf("%s: RetryAfterKeyed(%q, \"\", %d) = %v, want %v", tc.name, tc.header, tc.attempt, d, tc.want)
		}
	}
}

// TestBackoff: the hint-free schedule doubles per attempt from Fallback and
// never exceeds Cap — and agrees exactly with RetryAfterKeyed's no-header branch,
// since a transport error and a header-less 500 deserve the same patience.
func TestBackoff(t *testing.T) {
	p := Policy{Attempts: 5, Fallback: 50 * time.Millisecond, Cap: time.Second}
	want := []time.Duration{
		50 * time.Millisecond,  // attempt 1
		100 * time.Millisecond, // attempt 2
		200 * time.Millisecond, // attempt 3
		400 * time.Millisecond, // attempt 4
		800 * time.Millisecond, // attempt 5
		time.Second,            // attempt 6 doubles past Cap and clamps
		time.Second,            // and stays clamped from then on
	}
	for i, w := range want {
		attempt := i + 1
		if d := p.BackoffKeyed("", attempt); d != w {
			t.Errorf("BackoffKeyed(\"\", %d) = %v, want %v", attempt, d, w)
		}
		if d, r := p.BackoffKeyed("", attempt), p.RetryAfterKeyed("", "", attempt); d != r {
			t.Errorf("BackoffKeyed(\"\", %d) = %v but RetryAfterKeyed(\"\", \"\", %d) = %v; they must agree", attempt, d, attempt, r)
		}
	}
}

// TestBackoffKeyedJitterBounds: with Jitter armed, every keyed fallback delay
// stays within [d·(1−Jitter), d] of the unjittered schedule — including at
// the Cap clamp, where subtractive jitter must still spread delays instead of
// re-synchronizing every client at exactly Cap.
func TestBackoffKeyedJitterBounds(t *testing.T) {
	p := Policy{Attempts: 5, Fallback: 100 * time.Millisecond, Cap: 2 * time.Second, Jitter: 0.5}
	base := Policy{Attempts: p.Attempts, Fallback: p.Fallback, Cap: p.Cap} // jitter-free reference
	keys := []string{"", "http://w1:8080", "http://w2:8080", "http://w3:8080", "v2|detect-inject|x|app=0|run=3"}
	cases := []struct {
		name    string
		attempt int
	}{
		{"first attempt", 1},
		{"second attempt", 2},
		{"doubling attempt", 4},
		{"capped attempt", 8},
		{"deep capped attempt", 20},
	}
	for _, tc := range cases {
		d := base.BackoffKeyed("", tc.attempt)
		lo := time.Duration(float64(d) * (1 - p.Jitter))
		for _, key := range keys {
			got := p.BackoffKeyed(key, tc.attempt)
			if got < lo || got > d {
				t.Errorf("%s: BackoffKeyed(%q, %d) = %v, want within [%v, %v]", tc.name, key, tc.attempt, got, lo, d)
			}
			if again := p.BackoffKeyed(key, tc.attempt); again != got {
				t.Errorf("%s: BackoffKeyed(%q, %d) not deterministic: %v then %v", tc.name, key, tc.attempt, got, again)
			}
		}
	}
}

// TestBackoffKeyedSpreadsKeys: distinct keys must actually land on distinct
// delays (that is the whole point), and a malformed header must route through
// the same keyed jitter as a missing one.
func TestBackoffKeyedSpreadsKeys(t *testing.T) {
	p := Policy{Attempts: 5, Fallback: time.Second, Cap: 8 * time.Second, Jitter: 0.5}
	seen := map[time.Duration]bool{}
	for _, key := range []string{"http://a", "http://b", "http://c", "http://d"} {
		seen[p.BackoffKeyed(key, 3)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("4 keys produced %d distinct delays; jitter ignores the key and retries would thundering-herd", len(seen))
	}
	if got, want := p.RetryAfterKeyed("garbage", "http://a", 3), p.BackoffKeyed("http://a", 3); got != want {
		t.Fatalf("RetryAfterKeyed with malformed header = %v, want the keyed fallback %v", got, want)
	}
	if got := p.RetryAfterKeyed("2", "http://a", 3); got != 2*time.Second {
		t.Fatalf("RetryAfterKeyed with a parsed header = %v, want the server's verbatim 2s (never jittered)", got)
	}
}

// TestZeroJitterIsExact: Jitter 0 (the zero value every pre-jitter caller
// has) must reproduce the old schedule bit-for-bit.
func TestZeroJitterIsExact(t *testing.T) {
	p := Policy{Attempts: 5, Fallback: 50 * time.Millisecond, Cap: time.Second}
	for attempt := 1; attempt <= 8; attempt++ {
		if got, want := p.BackoffKeyed("http://a", attempt), p.BackoffKeyed("", attempt); got != want {
			t.Errorf("BackoffKeyed(%d) = %v with zero jitter, want %v", attempt, got, want)
		}
	}
}
