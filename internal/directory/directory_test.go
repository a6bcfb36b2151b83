package directory

import "testing"

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
