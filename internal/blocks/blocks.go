// Package blocks is storage that grows without moving what it holds.
// A Store keeps its elements in fixed-length blocks, each allocated the
// first time an index reaches it; growing the store copies only its
// table of blocks, never an element. So a store that lives as long as
// its owner costs one allocation per block, and no append stalls on a
// copy that grows with what was stored before.
package blocks

import (
	"iter"
	"unsafe"
)

// blockBytes is at most what one block occupies: the largest object
// Go's allocator serves from its per-P size classes. A million 104-byte
// jobs then need a table of about 3 200 blocks, and a 4096-slot event
// ring fewer allocations than appending slot by slot made.
const blockBytes = 32 << 10

// Store is a sequence of T in fixed-length blocks. An element never
// moves, so a pointer At returns stays valid as the store grows. The
// zero value is an empty, unbounded store. Copying a Store shares its
// blocks, as copying a slice shares its array. Not safe for concurrent
// use.
type Store[T any] struct {
	blocks [][]T
	limit  int // the most elements the store holds, 0 unbounded
	n      int // one past the last element Append wrote
}

// New returns an empty store that holds at most limit elements, its
// last block cut to fit; limit <= 0 leaves it unbounded.
func New[T any](limit int) Store[T] { return Store[T]{limit: max(limit, 0)} }

// blockLen is how many elements one block holds.
func blockLen[T any]() int {
	var v T
	return max(1, blockBytes/max(1, int(unsafe.Sizeof(v))))
}

// At returns element i, allocating its block if no index has reached
// it before. On a bounded store i must be below the limit.
func (s *Store[T]) At(i int) *T {
	bl := blockLen[T]()
	b := i / bl
	for len(s.blocks) <= b {
		s.blocks = append(s.blocks, nil)
	}
	if s.blocks[b] == nil {
		n := bl
		if s.limit > 0 {
			n = min(n, s.limit-b*bl)
		}
		s.blocks[b] = make([]T, n)
	}
	return &s.blocks[b][i%bl]
}

// Append stores v after the last appended element.
func (s *Store[T]) Append(v T) {
	*s.At(s.n) = v
	s.n++
}

// Len returns the number of appended elements.
func (s *Store[T]) Len() int { return s.n }

// All yields the appended elements in order, in place.
func (s *Store[T]) All() iter.Seq2[int, *T] {
	return func(yield func(int, *T) bool) {
		for i := 0; i < s.n; i++ {
			if !yield(i, s.At(i)) {
				return
			}
		}
	}
}
