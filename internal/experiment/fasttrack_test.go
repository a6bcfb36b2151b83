package experiment

import "testing"

// TestFastTrackConfirmedAllApps runs a small injection campaign over every
// Table 1 application and checks the FastTrack baseline's soundness bound:
// its happens-before model never reports a race the Ideal oracle rejects
// (the campaign's FalsePositives counter includes FastTrack reports), and
// per app it never detects more problems than Ideal.
func TestFastTrackConfirmedAllApps(t *testing.T) {
	res, err := RunDetection(Options{Injections: 3, BaseSeed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 12 {
		t.Fatalf("apps = %d, want all 12", len(res.Apps))
	}
	if res.FalsePositives() != 0 {
		t.Fatalf("false positives: %d", res.FalsePositives())
	}
	detected := 0
	for _, a := range res.Apps {
		if a.Problems[cfgFT] > a.Problems[cfgIdeal] {
			t.Fatalf("%s: FastTrack problems %d > Ideal %d",
				a.App, a.Problems[cfgFT], a.Problems[cfgIdeal])
		}
		detected += a.Problems[cfgFT]
	}
	if detected == 0 {
		t.Fatal("FastTrack detected no problems across the whole campaign")
	}
}
