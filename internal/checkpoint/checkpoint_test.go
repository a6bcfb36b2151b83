package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type outcome struct {
	Races int            `json:"races"`
	Hung  bool           `json:"hung"`
	Per   map[string]int `json:"per,omitempty"`
}

func tempJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.cordckpt")
}

// TestRoundTrip: appended records survive close + reopen and decode to the
// values that went in.
func TestRoundTrip(t *testing.T) {
	path := tempJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]outcome{
		"detect/1/0/0": {Races: 3, Per: map[string]int{"Ideal": 3, "CORD(D=16)": 1}},
		"detect/1/0/1": {Hung: true},
		"table1/1/2/0": {Races: 0},
	}
	for k, v := range want {
		if err := j.Append(k, v); err != nil {
			t.Fatalf("Append(%q): %v", k, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != len(want) {
		t.Fatalf("reopened journal has %d entries, want %d", j2.Len(), len(want))
	}
	for k, v := range want {
		var got outcome
		ok, err := j2.Lookup(k, &got)
		if err != nil || !ok {
			t.Fatalf("Lookup(%q) = %v, %v", k, ok, err)
		}
		if got.Races != v.Races || got.Hung != v.Hung || len(got.Per) != len(v.Per) {
			t.Fatalf("Lookup(%q) = %+v, want %+v", k, got, v)
		}
	}
	if j2.Hits() != len(want) {
		t.Fatalf("hits = %d, want %d", j2.Hits(), len(want))
	}
	if ok, _ := j2.Lookup("missing", nil); ok {
		t.Fatal("Lookup found a key never appended")
	}
}

// TestTornTailEveryOffset is the crash-safety contract: a journal cut off at
// ANY byte length — as a kill -9 mid-write would leave it — must reopen
// cleanly, keep every record wholly before the cut, and accept new appends.
func TestTornTailEveryOffset(t *testing.T) {
	ref := tempJournal(t)
	j, err := Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	const records = 4
	offsets := []int64{int64(headerSize)} // file size after header, then after each append
	for i := 0; i < records; i++ {
		if err := j.Append(fmt.Sprintf("run/%d", i), outcome{Races: i}); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(ref)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, info.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// wholeRecords(cut) is how many records end at or before byte cut.
	wholeRecords := func(cut int64) int {
		n := 0
		for _, off := range offsets[1:] {
			if off <= cut {
				n++
			}
		}
		return n
	}

	for cut := int64(headerSize); cut <= int64(len(full)); cut++ {
		path := filepath.Join(t.TempDir(), "torn.cordckpt")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tj, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		if want := wholeRecords(cut); tj.Len() != want {
			t.Fatalf("cut at %d: %d records survived, want %d", cut, tj.Len(), want)
		}
		// The repaired journal must accept and persist a new record.
		if err := tj.Append("after-tear", outcome{Races: 99}); err != nil {
			t.Fatalf("cut at %d: append after repair: %v", cut, err)
		}
		if err := tj.Close(); err != nil {
			t.Fatal(err)
		}
		tj2, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: reopen after repair: %v", cut, err)
		}
		var got outcome
		if ok, err := tj2.Lookup("after-tear", &got); !ok || err != nil || got.Races != 99 {
			t.Fatalf("cut at %d: post-repair record lost: %v %v %+v", cut, ok, err, got)
		}
		tj2.Close()
	}
}

// TestCorruptedRecordTruncates: a bit flip inside a record's payload breaks
// its checksum; the record and everything after it are dropped, everything
// before survives.
func TestCorruptedRecordTruncates(t *testing.T) {
	path := tempJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{}
	for i := 0; i < 3; i++ {
		if err := j.Append(fmt.Sprintf("run/%d", i), outcome{Races: i}); err != nil {
			t.Fatal(err)
		}
		info, _ := os.Stat(path)
		sizes = append(sizes, info.Size())
	}
	j.Close()

	// Flip one payload byte of the middle record.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[sizes[0]+frameOverhead+2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("%d records survived corruption, want 1 (the record before the flip)", j2.Len())
	}
	if ok, _ := j2.Lookup("run/0", nil); !ok {
		t.Fatal("the intact record before the corruption was lost")
	}
	info, _ := os.Stat(path)
	if info.Size() != sizes[0] {
		t.Fatalf("file is %d bytes after repair, want truncation to %d", info.Size(), sizes[0])
	}
}

// TestDuplicateKeyLastWins: re-appending a key supersedes the old record on
// load (retried runs may journal twice).
func TestDuplicateKeyLastWins(t *testing.T) {
	path := tempJournal(t)
	j, _ := Open(path)
	j.Append("run/0", outcome{Races: 1})
	j.Append("run/0", outcome{Races: 2})
	j.Close()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var got outcome
	if ok, _ := j2.Lookup("run/0", &got); !ok || got.Races != 2 {
		t.Fatalf("got %+v, want the later record (races=2)", got)
	}
	if j2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 distinct key", j2.Len())
	}
}

// TestRejectsForeignFiles: not-a-journal content is ErrBadFormat, not a
// silent empty journal; an unsupported version is rejected too.
func TestRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("this is not a journal, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(garbage); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Open(garbage) = %v, want ErrBadFormat", err)
	}

	future := filepath.Join(dir, "future")
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], SchemaVersion+1)
	if err := os.WriteFile(future, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(future); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Open(future version) = %v, want ErrBadFormat", err)
	}
}

// TestWriteFault: a failing fault hook aborts the append with the file
// untouched; clearing the hook restores normal appends.
func TestWriteFault(t *testing.T) {
	path := tempJournal(t)
	j, _ := Open(path)
	defer j.Close()
	boom := errors.New("disk on fire")
	j.SetWriteFault(func() error { return boom })
	if err := j.Append("run/0", outcome{}); !errors.Is(err, boom) {
		t.Fatalf("Append under fault = %v, want the fault error", err)
	}
	if j.Len() != 0 {
		t.Fatal("failed append still indexed the record")
	}
	info, _ := os.Stat(path)
	if info.Size() != int64(headerSize) {
		t.Fatalf("failed append wrote %d bytes past the header", info.Size()-int64(headerSize))
	}
	j.SetWriteFault(nil)
	if err := j.Append("run/0", outcome{Races: 5}); err != nil {
		t.Fatalf("append after clearing fault: %v", err)
	}
}

// TestConcurrentAppends: campaign workers append from many goroutines; every
// record must survive, and the file must load cleanly afterwards.
func TestConcurrentAppends(t *testing.T) {
	path := tempJournal(t)
	j, _ := Open(path)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Append(fmt.Sprintf("run/%d", i), outcome{Races: i}); err != nil {
				t.Errorf("Append(%d): %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != n {
		t.Fatalf("%d records survived, want %d", j2.Len(), n)
	}
	for i := 0; i < n; i++ {
		var got outcome
		if ok, err := j2.Lookup(fmt.Sprintf("run/%d", i), &got); !ok || err != nil || got.Races != i {
			t.Fatalf("run/%d: ok=%v err=%v got=%+v", i, ok, err, got)
		}
	}
}

// TestAppendAfterClose fails loudly instead of silently dropping the record.
func TestAppendAfterClose(t *testing.T) {
	j, _ := Open(tempJournal(t))
	j.Close()
	if err := j.Append("run/0", outcome{}); err == nil {
		t.Fatal("Append on a closed journal succeeded")
	}
}
