package memsys

// Table page geometry: a Table is a lazily allocated directory of pages of
// tablePageLen slots, indexed by key >> tableShift. Keyed by word index
// (Addr / WordBytes), one page spans 4 KB of address space; keyed by Line,
// 64 KB. Finding a key's slot is a shift, a bounds check, a nil check and an
// array index: no hashing, which is what keeps per-address metadata off the
// detectors' and the simulator's hot paths.
const (
	tableShift   = 10
	tablePageLen = 1 << tableShift // slots per page
	tableMask    = tablePageLen - 1
)

// Table is a sparse array of T indexed by a dense key: a word index
// (Addr / WordBytes) or a Line. The zero value of T means absent, and the
// zero Table is empty and ready for use. Pages are allocated on the first
// Ref into them and never freed; the directory grows with the highest key
// referenced, so keys must come from a compact address space such as the
// one Allocator hands out. Table is not safe for concurrent use.
//
// This is the software form of what CORD keeps in the cache lines beside
// the data (§2.3–2.4): a key's metadata is found by indexing, not by a
// search.
type Table[T any] struct {
	pages []*[tablePageLen]T
}

// Get returns the value at key i, or the zero value if i's page was never
// allocated. It never allocates.
func (t *Table[T]) Get(i uint64) T {
	pages := t.pages // one load of the directory, so one bounds check
	if pi := i >> tableShift; pi < uint64(len(pages)) {
		if p := pages[pi]; p != nil {
			return p[i&tableMask]
		}
	}
	var zero T
	return zero
}

// Ref returns a pointer to the slot of key i, allocating its page (and
// growing the directory) on first use. The pointer stays valid for the
// table's lifetime.
func (t *Table[T]) Ref(i uint64) *T {
	pi := i >> tableShift
	if pi >= uint64(len(t.pages)) || t.pages[pi] == nil {
		t.alloc(pi)
	}
	return &t.pages[pi][i&tableMask]
}

// alloc makes page pi present. It is small enough that Ref still inlines
// with it.
func (t *Table[T]) alloc(pi uint64) {
	if pi >= uint64(len(t.pages)) {
		grown := make([]*[tablePageLen]T, pi+1)
		copy(grown, t.pages)
		t.pages = grown
	}
	if t.pages[pi] == nil {
		t.pages[pi] = new([tablePageLen]T)
	}
}

// ForEach visits every slot of every allocated page in ascending key order,
// zero-valued (absent) slots included; callers skip those themselves. The
// order is a pure function of the keys referenced, identical across runs
// and processes.
func (t *Table[T]) ForEach(fn func(i uint64, v *T)) {
	for pi, p := range t.pages {
		if p == nil {
			continue
		}
		base := uint64(pi) << tableShift
		for j := range p {
			fn(base+uint64(j), &p[j])
		}
	}
}
