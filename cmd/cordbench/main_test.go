package main

import (
	"strings"
	"testing"
)

// TestParseApps: the -apps comma list resolves names through the Table 1
// catalogue; empty means all, unknown and repeated names are usage errors.
func TestParseApps(t *testing.T) {
	if apps, err := parseApps(""); apps != nil || err != nil {
		t.Fatalf("parseApps(\"\") = %v, %v; want nil, nil (all apps)", apps, err)
	}
	apps, err := parseApps(" raytrace , lu ")
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 2 || apps[0].Name != "raytrace" || apps[1].Name != "lu" {
		t.Fatalf("parseApps picked %v", apps)
	}
	if _, err := parseApps("raytrace,nosuchapp"); err == nil {
		t.Fatal("unknown app name accepted")
	}
	// A repeated name would alias the first copy's shards in a fleet
	// campaign, which then never dispatches them.
	for _, spec := range []string{"fft,fft", "lu, fft ,lu"} {
		if _, err := parseApps(spec); err == nil || !strings.Contains(err.Error(), "named twice") {
			t.Fatalf("parseApps(%q) = %v, want a repeated-name error", spec, err)
		}
	}
}

// TestValidateFlags: degenerate campaign parameters must be rejected up
// front with a usage error instead of producing empty figures or confusing
// downstream failures.
func TestValidateFlags(t *testing.T) {
	ok := func(injections, scale, ovScale, procs, dirProcs int) {
		t.Helper()
		if err := validateFlags(injections, scale, ovScale, procs, dirProcs); err != nil {
			t.Errorf("validateFlags(%d,%d,%d,%d,%d) = %v, want nil",
				injections, scale, ovScale, procs, dirProcs, err)
		}
	}
	bad := func(injections, scale, ovScale, procs, dirProcs int) {
		t.Helper()
		if err := validateFlags(injections, scale, ovScale, procs, dirProcs); err == nil {
			t.Errorf("validateFlags(%d,%d,%d,%d,%d) accepted degenerate flags",
				injections, scale, ovScale, procs, dirProcs)
		}
	}

	ok(40, 1, 4, 0, 16) // the defaults
	ok(1, 1, 1, 8, 2)   // minimal legal values

	bad(0, 1, 4, 0, 16)  // -injections 0: empty detection campaign
	bad(-5, 1, 4, 0, 16) // negative injections
	bad(40, 0, 4, 0, 16) // -scale 0: empty workloads
	bad(40, -1, 4, 0, 16)
	bad(40, 1, 0, 0, 16)  // -overhead-scale 0
	bad(40, 1, 4, -1, 16) // negative host worker count
	bad(40, 1, 4, 0, 1)   // single-processor directory machine
	bad(40, 1, 4, 0, 0)
}
