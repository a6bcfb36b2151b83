// Package memsys provides the simulated physical memory substrate: word and
// line address arithmetic and a sparse word-value store that backs the shared
// memory of the simulated machine.
//
// The geometry follows the paper's hardware: 4-byte words and 64-byte cache
// lines, so each line holds 16 words. Addresses are byte addresses; all
// simulated accesses are word-aligned, word-sized.
package memsys

import "fmt"

const (
	// WordBytes is the size of one simulated memory word.
	WordBytes = 4
	// LineBytes is the size of one cache line.
	LineBytes = 64
	// WordsPerLine is the number of words in a cache line.
	WordsPerLine = LineBytes / WordBytes
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Line identifies a cache line (the address with the offset bits removed).
type Line uint64

// LineOf returns the line containing a.
func LineOf(a Addr) Line { return Line(a / LineBytes) }

// WordIndex returns the index (0..WordsPerLine-1) of a's word within its line.
func WordIndex(a Addr) int { return int(a % LineBytes / WordBytes) }

// WordKey returns a's key in a word-indexed Table: its word index.
func WordKey(a Addr) uint64 { return uint64(a / WordBytes) }

// WordAlign rounds a down to its word boundary.
func WordAlign(a Addr) Addr { return a &^ (WordBytes - 1) }

// LineBase returns the byte address of the first word of line l.
func LineBase(l Line) Addr { return Addr(l) * LineBytes }

// WordAddr returns the byte address of word w within line l.
func WordAddr(l Line, w int) Addr { return LineBase(l) + Addr(w*WordBytes) }

// String renders the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// String renders the line in hex with its byte base.
func (l Line) String() string { return fmt.Sprintf("line:0x%x", uint64(LineBase(l))) }

// Memory is a word-granularity value store over a flat address space, kept
// in a Table keyed by word index: pages are allocated lazily on the first
// non-zero store, and absent pages read as zero. The zero value is an
// all-zero memory ready for use. Memory is not safe for concurrent use; the
// simulator serializes all accesses.
//
// Unlike a map-backed store, every traversal (ForEachWord, Equal) visits
// words in ascending address order, so memory-image dumps and
// comparisons are reproducible byte for byte across runs and processes.
type Memory struct {
	words   Table[uint64]
	nonzero int // distinct words currently holding a non-zero value
}

// NewMemory returns an empty (all-zero) memory.
func NewMemory() *Memory { return &Memory{} }

// Load returns the value of the word at a (a is word-aligned by the caller;
// stray offset bits are masked off).
func (m *Memory) Load(a Addr) uint64 { return m.words.Get(WordKey(a)) }

// Store writes v to the word at a.
func (m *Memory) Store(a Addr, v uint64) {
	i := WordKey(a)
	if v == 0 && m.words.Get(i) == 0 {
		return // storing zero over a zero word changes nothing and allocates nothing
	}
	w := m.words.Ref(i)
	switch {
	case *w == 0 && v != 0:
		m.nonzero++
	case *w != 0 && v == 0:
		m.nonzero--
	}
	*w = v
}

// Footprint returns the number of distinct words currently holding a
// non-zero value.
func (m *Memory) Footprint() int { return m.nonzero }

// ForEachWord visits every non-zero word in ascending address order — the
// paged layout's natural order, identical across runs and processes. Dump
// and comparison paths build on it so printed memory images are stable.
func (m *Memory) ForEachWord(fn func(a Addr, v uint64)) {
	m.words.ForEach(func(i uint64, v *uint64) {
		if *v != 0 {
			fn(Addr(i*WordBytes), *v)
		}
	})
}

// Equal reports whether two memories hold identical contents (the all-zero
// background included: pages never written compare equal to zeroed pages).
func (m *Memory) Equal(o *Memory) bool {
	if m.nonzero != o.nonzero {
		return false
	}
	equal := true
	m.ForEachWord(func(a Addr, v uint64) {
		if o.Load(a) != v {
			equal = false
		}
	})
	// Same non-zero count and every non-zero word of m matches o, so o
	// cannot hold extra non-zero words anywhere.
	return equal
}

// Region is a contiguous, line-aligned span of the address space handed out
// by an Allocator. It provides convenient word indexing for workloads.
type Region struct {
	Base  Addr
	Words int
}

// Word returns the address of the i-th word of the region. It panics if i is
// out of range: workloads index with computed bounds and an out-of-range
// index is a bug in the workload generator, not a recoverable condition.
func (r Region) Word(i int) Addr {
	if i < 0 || i >= r.Words {
		panic(fmt.Sprintf("memsys: region word %d out of range [0,%d)", i, r.Words))
	}
	return r.Base + Addr(i*WordBytes)
}

// Allocator hands out line-aligned regions of the simulated address space.
// Each distinct allocation starts on a fresh cache line so that workloads
// control false sharing explicitly (via PackedRegion) rather than by
// accident.
type Allocator struct {
	next Addr
}

// NewAllocator returns an allocator starting at a non-zero base (so address
// zero never aliases a valid allocation).
func NewAllocator() *Allocator { return &Allocator{next: LineBytes} }

// Alloc returns a new line-aligned region of the given number of words.
func (al *Allocator) Alloc(words int) Region {
	if words < 0 {
		panic("memsys: negative allocation")
	}
	r := Region{Base: al.next, Words: words}
	bytes := Addr(words * WordBytes)
	// Round the next base up to a line boundary.
	al.next += (bytes + LineBytes - 1) &^ (LineBytes - 1)
	if bytes == 0 {
		al.next += LineBytes
	}
	return r
}

// AllocPadded returns a region of `words` words where each word sits on its
// own cache line (stride 16 words). Workloads use it for lock arrays and
// per-thread counters that must not exhibit false sharing.
func (al *Allocator) AllocPadded(words int) PaddedRegion {
	r := al.Alloc(words * WordsPerLine)
	return PaddedRegion{r}
}

// PaddedRegion is a region in which logical word i occupies the first word of
// the i-th line.
type PaddedRegion struct {
	raw Region
}

// Word returns the address of the i-th logical (line-padded) word.
func (p PaddedRegion) Word(i int) Addr { return p.raw.Word(i * WordsPerLine) }
