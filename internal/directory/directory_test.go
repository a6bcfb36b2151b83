package directory

import (
	"testing"

	"cord/internal/memsys"
)

func TestSharerTracking(t *testing.T) {
	d := New(4)
	l := memsys.Line(7)
	d.AddSharer(l, 0)
	d.AddSharer(l, 2)
	got := d.Sharers(l, 0, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("sharers = %v", got)
	}
	d.RemoveSharer(l, 0)
	d.RemoveSharer(l, 2)
	if d.Lines() != 0 {
		t.Fatal("empty line not reclaimed")
	}
}

func TestMessageAccounting(t *testing.T) {
	d := New(8)
	d.Request(3)
	d.Request(0)
	d.MemTsUpdate(2)
	st := d.Stats()
	if st.Requests != 2 || st.Forwards != 3 || st.Responses != 3 || st.MemTsMessages != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestValidate(t *testing.T) {
	d := New(2)
	d.AddSharer(3, 0)
	ok := func(l memsys.Line, p int) bool { return l == 3 && p == 0 }
	if err := d.Validate(ok); err != nil {
		t.Fatal(err)
	}
	bad := func(memsys.Line, int) bool { return false }
	if err := d.Validate(bad); err == nil {
		t.Fatal("inconsistency not caught")
	}
}

func TestProcLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("65 procs accepted")
		}
	}()
	New(65)
}
