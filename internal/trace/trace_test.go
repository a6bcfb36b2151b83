package trace

import (
	"strings"
	"testing"

	"cord/internal/memsys"
)

func TestStringers(t *testing.T) {
	a := Access{Seq: 5, Thread: 2, Addr: memsys.Addr(0x80), Kind: Write, Class: Sync}
	s := a.String()
	for _, want := range []string{"T2", "WR", "sync", "0x80", "#5"} {
		if !strings.Contains(s, want) {
			t.Errorf("Access string %q missing %q", s, want)
		}
	}
	r := Race{Addr: 0x40, First: Ref{Thread: 0, Kind: Write}, Second: Ref{Thread: 1, Kind: Read}}
	rs := r.String()
	if !strings.Contains(rs, "T0 WR") || !strings.Contains(rs, "T1 RD") {
		t.Errorf("Race string %q", rs)
	}
	if Read.String() != "RD" || Write.String() != "WR" || Data.String() != "data" || Sync.String() != "sync" {
		t.Error("enum names wrong")
	}
}

func TestFuncObserver(t *testing.T) {
	n := 0
	f := &FuncObserver{Label: "tap", Fn: func(Access) { n++ }}
	if f.Name() != "tap" {
		t.Fatal("name")
	}
	f.OnAccess(Access{})
	f.OnAccess(Access{})
	f.Migrate(0, 1, 0)
	f.ThreadDone(0, 0)
	f.Finish()
	if n != 2 {
		t.Fatalf("Fn called %d times", n)
	}
	// Nil Fn must be safe.
	empty := &FuncObserver{}
	empty.OnAccess(Access{})
}
