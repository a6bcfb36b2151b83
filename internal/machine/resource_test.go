package machine

import (
	"testing"
	"testing/quick"
)

func TestResourceSerializes(t *testing.T) {
	var r resource
	if end, _ := r.acquire(100, 10); end != 110 {
		t.Fatalf("first acquire end = %d", end)
	}
	// Requested during occupancy: queued behind.
	if end, _ := r.acquire(105, 10); end != 120 {
		t.Fatalf("queued acquire end = %d", end)
	}
	// Requested after idle: starts immediately.
	if end, _ := r.acquire(500, 10); end != 510 {
		t.Fatalf("idle acquire end = %d", end)
	}
	if r.busy != 30 || r.trans != 3 {
		t.Fatalf("stats busy=%d n=%d", r.busy, r.trans)
	}
}

// TestAcquireQueueDelay: acquire reports how long the transaction waited
// for the resource, and nothing when the resource was idle.
func TestAcquireQueueDelay(t *testing.T) {
	var r resource
	if _, queued := r.acquire(0, 100); queued != 0 {
		t.Fatalf("first delay = %d", queued)
	}
	if end, queued := r.acquire(40, 10); queued != 60 || end != 110 {
		t.Fatalf("busy acquire: end %d, delay %d", end, queued)
	}
	if _, queued := r.acquire(200, 10); queued != 0 {
		t.Fatalf("idle delay = %d", queued)
	}
}

// Property: completions are monotone in request order, each transaction
// queues exactly until the previous one ends, and the resource is never
// occupied by two transactions at once (sum of durations <= last end -
// first start).
func TestResourceMonotone(t *testing.T) {
	f := func(reqs [20]struct {
		At  uint16
		Dur uint8
	}) bool {
		var r resource
		now := uint64(0)
		var lastEnd uint64
		var total uint64
		for _, q := range reqs {
			now += uint64(q.At)
			d := uint64(q.Dur%16) + 1
			end, queued := r.acquire(now, d)
			if end != now+queued+d || queued != max(lastEnd, now)-now {
				return false
			}
			if end < lastEnd+d {
				return false // overlap: two transactions at once
			}
			lastEnd = end
			total += d
		}
		return r.busy == total && r.trans == uint64(len(reqs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
