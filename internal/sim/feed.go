package sim

import (
	"sync"

	"cord/internal/record"
)

// ReplayFeed is an appendable epoch source for streaming replay: a producer
// (the service's online-detection ingest) appends epochs as they become
// final, while an engine configured with Config.ReplayFeed consumes them,
// blocking when it runs ahead of the stream. This is what turns the replay
// scheduler from "replay a complete log" into "replay the log while it is
// still arriving".
//
// Epochs must be appended in the global schedule order Log.Schedule (or
// record.EpochStream) produces: nondecreasing Time, ties ordered by Index.
// The engine's equal-time reordering (replayRecoverable) relies on the Time
// sequence being sorted to decide when no concurrent epoch can still arrive.
//
// Append copies the epochs, so producers may reuse their slices (the
// EpochStream release buffer, for instance) immediately. The engine takes the
// epochs over as it consumes them, so the feed holds only epochs not yet
// taken. One producer and one consuming engine is the supported topology;
// Append and CloseFeed may be called from any goroutine.
type ReplayFeed struct {
	mu     sync.Mutex
	epochs []record.Epoch // appended, not yet taken
	closed bool
	wake   chan struct{}
}

// NewReplayFeed returns an empty, open feed.
func NewReplayFeed() *ReplayFeed {
	return &ReplayFeed{wake: make(chan struct{})}
}

// Append publishes more epochs to the consuming engine.
func (f *ReplayFeed) Append(eps ...record.Epoch) {
	if len(eps) == 0 {
		return
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		panic("sim: ReplayFeed.Append after CloseFeed")
	}
	f.epochs = append(f.epochs, eps...)
	close(f.wake)
	f.wake = make(chan struct{})
	f.mu.Unlock()
}

// CloseFeed declares end of stream: once the engine has consumed every
// appended epoch it proceeds to the end-of-schedule drain instead of waiting.
// CloseFeed is idempotent; Append after CloseFeed is a programming error and
// panics (the closed wake channel is gone, but guard explicitly).
func (f *ReplayFeed) CloseFeed() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.wake)
		f.wake = make(chan struct{})
	}
	f.mu.Unlock()
}

// take hands the epochs appended since the last take over to the consumer,
// appending them to dst, and returns the closed flag and a channel that
// closes on the next Append or CloseFeed. The feed keeps none of them; it
// reuses its buffer for the next Append.
func (f *ReplayFeed) take(dst []record.Epoch) ([]record.Epoch, bool, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dst = append(dst, f.epochs...)
	f.epochs = f.epochs[:0]
	return dst, f.closed, f.wake
}
