package labels

import (
	"math/bits"
	"reflect"
	"slices"
	"sync"
)

// bulkMax is the longest assignment a Bulk keeps, which bounds a table
// at bulkMax²/2 codes however documents are shaped; a longer sibling
// list is computed every time.
const bulkMax = 256

// Bulk shares bulk codes between every algebra of one kind and
// configuration in the process. Assign(n) is a pure function of n and
// that configuration, and codes are immutable, so the n codes are
// computed and boxed once; every later Assign(n) of the kind — a
// document loaded again, the next sibling list of the same length —
// costs nothing: the result is a view of the row, for reading only,
// with len == cap so that an append copies instead of reaching the
// table. Concurrent loaders share a table: mu guards it, for the moment
// it takes to read a row or to grow the list, and a kept code is never
// written again.
type Bulk struct {
	mu   sync.Mutex
	rows map[int]bulkRow // by n
	list []Code          // Extend's codes
}

// bulkRow is Assign(n) computed once: its codes, and what computing
// them added to the algebra's counters.
type bulkRow struct {
	codes     []Code
	divisions int64
	depth     int
}

var bulks sync.Map // kind → *Bulk

// BulkFor returns the table of kind: a comparable value that names the
// algebra's type and whatever of its configuration Assign reads.
func BulkFor(kind any) *Bulk {
	b, _ := bulks.LoadOrStore(kind, new(Bulk))
	return b.(*Bulk)
}

// Assign returns compute(n), from the table when n has been computed
// before. The counters read the same either way — the framework grades
// division and recursion from them: a row holds what its computation
// added to c, and a hit adds that. compute advances c itself; c is nil
// for an algebra that keeps none. An error is not kept.
func (b *Bulk) Assign(n int, c *Counters, compute func(int) ([]Code, error)) ([]Code, error) {
	if n <= 0 || n > bulkMax {
		return compute(n)
	}
	if c == nil {
		c = new(Counters)
	}
	b.mu.Lock()
	row := b.rows[n]
	b.mu.Unlock()
	if row.codes != nil {
		c.Divisions += row.divisions
		c.MaxRecursion = max(c.MaxRecursion, row.depth)
		return row.codes, nil
	}
	// MaxRecursion is a maximum: zeroed, it reads this computation's depth.
	was := *c
	c.MaxRecursion = 0
	codes, err := compute(n)
	row = bulkRow{codes[:len(codes):len(codes)], c.Divisions - was.Divisions, c.MaxRecursion}
	c.MaxRecursion = max(was.MaxRecursion, row.depth)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	if b.rows == nil {
		b.rows = make(map[int]bulkRow)
	}
	b.rows[n] = row
	b.mu.Unlock()
	return row.codes, nil
}

// Extend is Assign for an algebra whose i-th bulk code is the same
// whatever n: one list serves every n and grows by the codes it lacks,
// so relabelling a sibling list that has grown by one boxes one. fill
// writes the codes list[from:] lacks (Box). The views are prefixes of
// the list: growing it appends behind them or moves to a new array, and
// disturbs none.
func (b *Bulk) Extend(n int, fill func(codes []Code, from int)) []Code {
	b.mu.Lock()
	defer b.mu.Unlock()
	list, keep := b.list, n <= bulkMax*bulkMax/2
	if !keep {
		// The tail must not land in the kept list's spare capacity: the
		// next such call would write it again under this one's reader.
		list = list[:len(list):len(list)]
	}
	if from := len(list); from < n {
		list = slices.Grow(list, n-from)[:n]
		fill(list[from:], from)
	}
	if keep {
		b.list = list
	}
	return list[:n:n]
}

// rowPiece is the most bytes one piece of a computed row takes: Go's
// largest size class, so that a long row is not rounded up to whole
// pages as one array of it would be.
const rowPiece = 32 << 10

// Box points each of codes at a zero T of its own, for the caller to
// write before it hands the codes out: a bulk row that is computed costs
// an allocation a piece, not one a code, and *T is its codes' one boxed
// form, as it is of the codes Between cuts from a labelling's chunks
// (Cut). A piece is at most 32 KiB and a power of two of codes, so that
// a piece of 8- or 16-byte codes is exactly a size class: the row's
// pieces hold its bytes and not one more.
func Box[T any, P interface {
	*T
	Code
}](codes []Code) {
	per := max(1, rowPiece/int(reflect.TypeFor[T]().Size()))
	var piece []T
	for i := range codes {
		if len(piece) == 0 {
			piece = make([]T, 1<<(bits.Len(uint(min(per, len(codes)-i)))-1))
		}
		codes[i], piece = P(&piece[0]), piece[1:]
	}
}
