package exec

import (
	"math/bits"
	"sync"
	"unsafe"

	"mqo/internal/algebra"
	"mqo/internal/storage"
)

// rowArena is the storage of an operator that keeps rows: copies are carved
// len == cap from slabs, so keeping rows allocates once per slab, not once
// per row, and an append to one row cannot reach the next. Slabs come from
// the pools every run shares (slabs), and an operator gives them back when it
// closes (release): by the Iterator contract no row it handed out is read
// after that. drain, whose rows are the run's answers, never gives its back.
type rowArena struct {
	slab storage.Row   // the newest slab; rows are carved off its free end
	full []storage.Row // the slabs before it, each carved to its end
}

// maxSlab bounds, in values, the slabs an arena grows by: what it allocates
// beyond the rows it keeps is one slab at most.
const maxSlab = 4096

// alloc returns an unwritten row of width values.
func (a *rowArena) alloc(width int) storage.Row {
	if cap(a.slab)-len(a.slab) < width {
		a.grow(width)
	}
	n := len(a.slab) + width
	a.slab = a.slab[:n]
	return a.slab[n-width : n : n]
}

// grow starts a slab with room for a row of width values. The first holds
// four rows, as most results are a few rows, and each is twice the last up
// to maxSlab.
func (a *rowArena) grow(width int) { a.next(max(min(2*cap(a.slab), maxSlab), 4*width)) }

// next starts a slab of at least size values, keeping the one it replaces
// until the arena is reset, or giving it back if nothing was carved from it.
func (a *rowArena) next(size int) {
	if len(a.slab) > 0 {
		a.full = append(a.full, a.slab)
	} else {
		slabs.put(a.slab)
	}
	a.slab = slabs.get(size)
}

// keep returns the arena's copy of r.
func (a *rowArena) keep(r storage.Row) storage.Row {
	out := a.alloc(len(r))
	copy(out, r)
	return out
}

// reserve makes room for rows more rows of width values in one slab, for a
// caller that knows how many are coming.
func (a *rowArena) reserve(rows, width int) {
	if n := rows * width; cap(a.slab)-len(a.slab) < n {
		a.next(n)
	}
}

// reset takes back every row handed out, to carve the newest slab again; the
// slabs before it go back to the pools.
func (a *rowArena) reset() {
	for i, s := range a.full {
		slabs.put(s)
		a.full[i] = nil
	}
	a.full = a.full[:0]
	a.slab = a.slab[:0]
}

// release gives every slab back to the pools: the rows handed out are gone.
func (a *rowArena) release() {
	a.reset()
	slabs.put(a.slab)
	a.slab = nil
}

// The pools of the buffers operators keep rows in, shared by every run: row
// values (a rowArena's slabs), row headers (a sort's or a join's held rows),
// a sort's keys and a join's bucket numbers.
var (
	slabs    = newPooled[algebra.Value]()
	headers  = newPooled[storage.Row]()
	sortKeys = newPooled[keyed]()
	uint64s  = newPooled[uint64]()
	int32s   = newPooled[int32]()
)

// pooled hands out buffers of T by size class and takes them back. A buffer
// it hands out has exactly its class's capacity, which is at most 1/16 above
// the length asked for (sizeClass), so a caller that sizes a buffer from a
// count it knows gets about that much.
type pooled[T any] struct {
	free freeLists
}

func newPooled[T any]() *pooled[T] {
	return &pooled[T]{free: &lists{elem: int(unsafe.Sizeof(*new(T)))}}
}

// get returns an empty buffer with room for n elements.
func (p *pooled[T]) get(n int) []T {
	class, size := sizeClass(n)
	if class < numClasses {
		if ptr := p.free.get(class); ptr != nil {
			return unsafe.Slice((*T)(ptr), size)[:0]
		}
	}
	return make([]T, 0, size)
}

// put takes back a buffer that get handed out, or a nil one. The caller keeps
// no reference to it. It is cleared, so that what it held can be collected.
func (p *pooled[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	if class, size := sizeClass(cap(s)); class < numClasses && size == cap(s) {
		clear(s[:size])
		p.free.put(class, unsafe.Pointer(unsafe.SliceData(s)))
	}
}

// grow returns s with room for n more elements: s itself when it has it, else
// a buffer of at least twice its capacity holding its elements, s going back.
func (p *pooled[T]) grow(s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return p.move(s, n)
}

// move is grow's slow path, kept out of it so that grow is inlined.
func (p *pooled[T]) move(s []T, n int) []T {
	t := append(p.get(max(2*cap(s), len(s)+n)), s...)
	p.put(s)
	return t
}

// A freeLists keeps the buffers of each size class given back, by their first
// element's address: the buffer is classSize(class) elements. get returns nil
// when it has none.
type freeLists interface {
	get(class int) unsafe.Pointer
	put(class int, p unsafe.Pointer)
}

// keepBytes bounds the buffers the free lists of one element type keep. At
// most ~2.5 MB are given back at a time in the repository's benchmark
// workloads, almost all of them row values.
const keepBytes = 4 << 20

// lists is the free lists of one element type: per class, the buffers given
// back, the newest handed out first, under one lock, keepBytes of them at
// most. A buffer that would take them past that empties them first, so that
// what they keep follows what the runs use now; one larger than keepBytes is
// not kept. They are not sync.Pools, which every garbage collection empties:
// in a small heap collections come every few milliseconds, and on the
// benchmark's cache_replay_tight sync.Pools kept so little that its runs
// allocated 40 % more than with these lists, and its 0.1 ms plan-cache hits
// took longer than with no pooling at all.
type lists struct {
	mu   sync.Mutex
	elem int // bytes per element
	held int // bytes kept
	free [numClasses][]unsafe.Pointer
}

func (l *lists) get(class int) unsafe.Pointer {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := l.free[class]
	if len(f) == 0 {
		return nil
	}
	p := f[len(f)-1]
	f[len(f)-1] = nil
	l.free[class] = f[:len(f)-1]
	l.held -= classSize(class) * l.elem
	return p
}

func (l *lists) put(class int, p unsafe.Pointer) {
	bytes := classSize(class) * l.elem
	if bytes > keepBytes {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held+bytes > keepBytes {
		for c := range l.free {
			clear(l.free[c])
			l.free[c] = l.free[c][:0]
		}
		l.held = 0
	}
	l.free[class] = append(l.free[class], p)
	l.held += bytes
}

// numClasses is the number of size classes pooled: 0 to 16 elements one by
// one, then 16 steps per doubling up to 2^22 elements. Larger buffers are
// allocated and dropped.
const numClasses = 17 + 16*(22-4)

// sizeClass is the class of a buffer of n elements and its capacity: n up to
// 16, and above that n rounded up to a multiple of 2^e, where n−1 has 5 + e
// significant bits, which is less than 1/16 of n.
func sizeClass(n int) (class, size int) {
	if n <= 16 {
		return max(n, 0), max(n, 0)
	}
	e := bits.Len(uint(n-1)) - 5
	m := (n-1)>>e + 1 // 17 to 32
	return 16*e + m, m << e
}

// classSize is the capacity of size class c's buffers.
func classSize(c int) int {
	if c <= 16 {
		return c
	}
	return (17 + (c-17)%16) << ((c - 17) / 16)
}
