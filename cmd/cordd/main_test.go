package main

import (
	"testing"
	"time"
)

// TestValidateFlags: degenerate service parameters must be rejected up front
// with a usage error instead of a half-configured server.
func TestValidateFlags(t *testing.T) {
	s := time.Second
	cases := []struct {
		name            string
		workers         int
		queue           int
		timeout         time.Duration
		drain           time.Duration
		maxBody         int64
		streams         int
		streamIdle      time.Duration
		streamMaxBytes  int64
		streamMaxFrames uint64
		wantErr         bool
	}{
		{"defaults", 0, 16, 60 * s, 30 * s, 8 << 20, 8, 30 * s, 256 << 20, 16 << 20, false},
		{"explicit workers", 4, 1, s, s, 1, 1, s, 1, 1, false},
		{"negative workers", -1, 16, s, s, 1 << 20, 8, s, 1 << 20, 1 << 20, true},
		{"zero queue", 4, 0, s, s, 1 << 20, 8, s, 1 << 20, 1 << 20, true},
		{"negative queue", 4, -3, s, s, 1 << 20, 8, s, 1 << 20, 1 << 20, true},
		{"zero timeout", 4, 16, 0, s, 1 << 20, 8, s, 1 << 20, 1 << 20, true},
		{"negative timeout", 4, 16, -s, s, 1 << 20, 8, s, 1 << 20, 1 << 20, true},
		{"zero drain", 4, 16, s, 0, 1 << 20, 8, s, 1 << 20, 1 << 20, true},
		{"zero max body", 4, 16, s, s, 0, 8, s, 1 << 20, 1 << 20, true},
		{"negative max body", 4, 16, s, s, -1, 8, s, 1 << 20, 1 << 20, true},
		{"zero streams", 4, 16, s, s, 1 << 20, 0, s, 1 << 20, 1 << 20, true},
		{"zero stream idle", 4, 16, s, s, 1 << 20, 8, 0, 1 << 20, 1 << 20, true},
		{"zero stream bytes", 4, 16, s, s, 1 << 20, 8, s, 0, 1 << 20, true},
		{"zero stream frames", 4, 16, s, s, 1 << 20, 8, s, 1 << 20, 0, true},
	}
	for _, tc := range cases {
		err := validateFlags(tc.workers, tc.queue, tc.timeout, tc.drain, tc.maxBody,
			tc.streams, tc.streamIdle, tc.streamMaxBytes, tc.streamMaxFrames)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: validateFlags = %v, wantErr=%v", tc.name, err, tc.wantErr)
		}
	}
}

// TestValidateFleetFlags: the §7 membership flags reject relative URLs, a
// dangling -advertise, and out-of-range TTLs before the process binds.
func TestValidateFleetFlags(t *testing.T) {
	const s = 15 * time.Second
	cases := []struct {
		name                string
		register, advertise string
		ttl                 time.Duration
		wantErr             bool
	}{
		{"no fleet flags", "", "", s, false},
		{"register only", "http://reg:8080", "", s, false},
		{"register and advertise", "http://reg:8080", "http://w1:9001", s, false},
		{"https registry", "https://reg", "", s, false},
		{"relative registry", "reg:8080", "", s, true},
		{"non-http registry", "ftp://reg:8080", "", s, true},
		{"relative advertise", "http://reg:8080", "w1:9001", s, true},
		{"advertise without register", "", "http://w1:9001", s, true},
		{"ttl too small", "http://reg:8080", "", 500 * time.Millisecond, true},
		{"ttl too large", "http://reg:8080", "", 301 * time.Second, true},
		{"ttl bounds", "http://reg:8080", "", 300 * time.Second, false},
	}
	for _, tc := range cases {
		err := validateFleetFlags(tc.register, tc.advertise, tc.ttl)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: validateFleetFlags = %v, wantErr=%v", tc.name, err, tc.wantErr)
		}
	}
}

// TestAdvertiseURL: a bare ":port" bind derives a loopback URL; a host:port
// bind is used as given.
func TestAdvertiseURL(t *testing.T) {
	if got := advertiseURL(":9001"); got != "http://127.0.0.1:9001" {
		t.Errorf("advertiseURL(\":9001\") = %q", got)
	}
	if got := advertiseURL("10.0.0.5:9001"); got != "http://10.0.0.5:9001" {
		t.Errorf("advertiseURL host:port = %q", got)
	}
}
