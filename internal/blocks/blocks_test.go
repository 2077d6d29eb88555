package blocks

import (
	"runtime"
	"testing"
	"unsafe"
)

// Appending never moves an element: a pointer taken when an element is
// appended still points at it, holding its value, 10⁵ appends later,
// and All yields the same addresses in order.
func TestAppendNeverMovesAnElement(t *testing.T) {
	const n = 100_000
	var s Store[int64]
	ptrs := make([]*int64, n)
	for i := range ptrs {
		s.Append(int64(i))
		ptrs[i] = s.At(i)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d after %d appends", s.Len(), n)
	}
	for i, p := range s.All() {
		if p != ptrs[i] || *p != int64(i) {
			t.Fatalf("element %d moved or changed: %p (%d), appended at %p", i, p, *p, ptrs[i])
		}
	}
}

// n appends allocate the ⌈n/block⌉ blocks and the growth of their
// table, and nothing else: no element is ever copied to a new array,
// as appending to one slice does each time it outgrows its array.
func TestAppendAllocatesOnlyBlocksAndTable(t *testing.T) {
	const n = 100_000
	bl := blockLen[int64]()
	blocks := (n + bl - 1) / bl
	var table [][]int64 // the table as At grows it, one block at a time
	tableAllocs, tableBytes := 0, 0
	for range blocks {
		if len(table) == cap(table) {
			tableAllocs++
			tableBytes += int(unsafe.Sizeof(table[:1][0])) * cap(append(table, nil))
		}
		table = append(table, nil)
	}
	fill := func() {
		var s Store[int64]
		for i := 0; i < n; i++ {
			s.Append(int64(i))
		}
	}
	allocs := testing.AllocsPerRun(1, fill)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	if want := blocks + tableAllocs; allocs > float64(want) {
		t.Fatalf("%d appends allocate %.0f objects, want at most %d blocks of %d plus %d for the table",
			n, allocs, blocks, bl, tableAllocs)
	}
	// The readings also count whatever the runtime allocates meanwhile,
	// hence the tenth; a copy as the store grew would add several times
	// the final bytes.
	if want := blocks*bl*8 + tableBytes; bytes > uint64(want+want/10) {
		t.Fatalf("%d appends allocate %d bytes, want at most %d: %d blocks of %d and %d for the table",
			n, bytes, want, blocks, bl, tableBytes)
	}
}
