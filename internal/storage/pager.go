// Package storage implements the paged storage engine the execution engine
// runs on: a pager over fixed 4 KB pages, a buffer pool with LRU eviction and
// I/O accounting, slotted heap pages, heap files, and B+-tree indices.
//
// The engine substitutes for the commercial DBMS the paper used in its
// Figure 7 execution experiment: every page read/write is counted, so a run
// reports a simulated I/O time using the paper's cost constants alongside
// wall-clock time.
//
// Concurrency model: the buffer pool is safe for concurrent use under one
// latch, which also serializes every call into its backing store, and there
// is one access rule: page bytes never leave the latch. View, Update and
// AllocateWith run a callback on a page's bytes with the latch held; nothing
// hands the bytes out, so the latch is the pin. That is what lets an eviction
// pass its victim's frame straight to the fault that caused it — no reader
// can be looking at the old page — and what keeps eviction from writing back
// or dropping a page mid-mutation. A callback decodes, copies out or edits in
// place; it must not keep the slice and must not call into the pool (the
// latch is held, and it does not nest). What a table's pages *say* is still
// synchronized by ownership: every page belongs to exactly one heap file or
// B-tree, and the engine's table life cycle guarantees a table is never
// written and read concurrently (base tables are read-only after load, temp
// tables are private to their run, cache tables become visible to other runs
// only after their writer committed).
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// PageSize is the block size of the paper's cost model (§6).
const PageSize = 4096

// PageID identifies a page in the pager.
type PageID int32

// InvalidPage is the nil page id.
const InvalidPage PageID = -1

// IOStats counts physical page operations (buffer-pool misses and
// write-backs, not logical accesses).
type IOStats struct {
	Reads  int64 // pages read from the backing store
	Writes int64 // pages written to the backing store
	Hits   int64 // buffer pool hits
}

// PageStore is the backing store a buffer pool faults pages from and
// writes them back to. Two implementations exist: the in-memory Pager
// (primary tier) and the disk-backed FilePager (warm tier); the pool is
// tier-agnostic, so heap files and B-trees run unchanged over either.
type PageStore interface {
	// Allocate creates a new zeroed page and returns its id.
	Allocate() PageID
	// NumPages returns the number of allocated pages.
	NumPages() int

	// free takes back pages of dropped tables, whose frames the pool has
	// already forgotten: a later Allocate may return their ids again.
	free(ids []PageID)
	// read fills all PageSize bytes of buf: the pool reads into recycled
	// frames, so anything left unwritten would be another page's bytes.
	read(id PageID, buf []byte) error
	write(id PageID, buf []byte) error
}

// Pager is the backing store: an in-memory array of pages standing in for a
// disk volume. It has no lock of its own: the buffer pool over it makes
// every call under its latch. The pages of dropped tables go on a free list
// that Allocate takes from before it grows the array.
type Pager struct {
	pages [][]byte
	freed []PageID
}

// NewPager returns an empty pager.
func NewPager() *Pager { return &Pager{} }

// Allocate returns a zeroed page: a freed one if there is any, else a new one.
func (p *Pager) Allocate() PageID {
	if n := len(p.freed); n > 0 {
		id := p.freed[n-1]
		p.freed = p.freed[:n-1]
		clear(p.pages[id])
		return id
	}
	p.pages = append(p.pages, make([]byte, PageSize))
	return PageID(len(p.pages) - 1)
}

func (p *Pager) free(ids []PageID) { p.freed = append(p.freed, ids...) }

// NumPages returns the number of allocated pages, free ones included.
func (p *Pager) NumPages() int { return len(p.pages) }

func (p *Pager) read(id PageID, buf []byte) error {
	if int(id) < 0 || int(id) >= len(p.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(buf, p.pages[id])
	return nil
}

func (p *Pager) write(id PageID, buf []byte) error {
	if int(id) < 0 || int(id) >= len(p.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	copy(p.pages[id], buf)
	return nil
}

// frame is one buffer-pool slot.
type frame struct {
	id    PageID
	data  []byte
	dirty bool
	prev  *frame
	next  *frame
}

// BufferPool caches pages with LRU replacement and lock-free I/O accounting.
// All methods are safe for concurrent use; see the package comment for the
// page-content ownership rules.
type BufferPool struct {
	pager PageStore

	mu       sync.Mutex // the latch: guards frames, the LRU chain, spare and every pager call
	capacity int
	frames   map[PageID]*frame
	head     *frame   // most recently used
	tail     *frame   // least recently used
	spare    []*frame // frames of freed pages, for the next fault to fill

	reads  atomic.Int64
	writes atomic.Int64
	hits   atomic.Int64
	// dirty counts resident dirty frames, so Flush can tell without a walk
	// or the latch that it has nothing to write.
	dirty atomic.Int64
}

// NewBufferPool creates a pool holding up to max(capacity, 8) pages, exactly:
// no rounding. Every pool the benchmark and the commands build (64, 256, 512,
// 1024 pages) is a multiple of 8, so none is a page larger or smaller than
// when the pool rounded its capacity up to one.
func NewBufferPool(pager PageStore, capacity int) *BufferPool {
	return &BufferPool{pager: pager, capacity: max(capacity, 8), frames: map[PageID]*frame{}}
}

// View applies fn to the page's bytes under the pool latch, faulting the page
// in if needed. It is the only way to read a page: data is the pool's frame,
// valid until fn returns and not to be written.
func (bp *BufferPool) View(id PageID, fn func(data []byte) error) error {
	return bp.access(id, fn, false)
}

// Update is View for writers: fn may edit the page's bytes, and the page is
// marked dirty unless fn fails. Eviction needs the same latch, so it can
// never write back or drop the frame mid-mutation and no update is ever lost.
func (bp *BufferPool) Update(id PageID, fn func(data []byte) error) error {
	return bp.access(id, fn, true)
}

func (bp *BufferPool) access(id PageID, fn func(data []byte) error, write bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.frameLocked(id)
	if err != nil {
		return err
	}
	if err := fn(f.data); err != nil {
		return err
	}
	if write && !f.dirty {
		f.dirty = true
		bp.dirty.Add(1)
	}
	return nil
}

// AllocateWith creates a new page, initializes it with init under the
// latch, and leaves it resident and dirty. The atomic
// allocate-initialize replaces the old Allocate/MarkDirty pair, whose
// window allowed a concurrent eviction to persist a half-initialized page.
func (bp *BufferPool) AllocateWith(init func(data []byte)) (PageID, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.freeFrameLocked()
	if err != nil {
		return InvalidPage, err
	}
	id := bp.pager.Allocate()
	// A new page is zeroed: initHeapPage writes a header, not the body, and
	// what a recycled frame held would otherwise reach the backing store.
	clear(f.data)
	f.id, f.dirty = id, true
	bp.dirty.Add(1)
	// Allocation faults count as reads, matching the original pool's
	// accounting (the paper's cost model charges first-touch I/O); the
	// calibration constants and bench gates are built on these counters.
	bp.reads.Add(1)
	bp.frames[id] = f
	bp.pushFront(f)
	if init != nil {
		init(f.data)
	}
	return id, nil
}

// Free forgets the frames of pages nobody will read again — those of a
// dropped table — without writing them back, then hands the pages to the
// backing store for reuse.
func (bp *BufferPool) Free(ids []PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, id := range ids {
		if f, ok := bp.frames[id]; ok {
			if f.dirty {
				f.dirty = false
				bp.dirty.Add(-1)
			}
			bp.unlink(f)
			delete(bp.frames, id)
			bp.spare = append(bp.spare, f)
		}
	}
	bp.pager.free(ids)
}

// Flush writes back all dirty pages. With none, it returns without taking
// the latch.
func (bp *BufferPool) Flush() error {
	if bp.dirty.Load() == 0 {
		return nil
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		if f.dirty {
			if err := bp.pager.write(f.id, f.data); err != nil {
				return err
			}
			bp.writes.Add(1)
			f.dirty = false
			bp.dirty.Add(-1)
		}
	}
	return nil
}

// Stats snapshots the I/O counters.
func (bp *BufferPool) Stats() IOStats {
	return IOStats{Reads: bp.reads.Load(), Writes: bp.writes.Load(), Hits: bp.hits.Load()}
}

// NumPages is the number of pages the backing store holds, free or in use.
func (bp *BufferPool) NumPages() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.pager.NumPages()
}

// Misses is Stats().Reads alone: one atomic load, cheap enough to bracket
// every page read of a scan and every index probe.
func (bp *BufferPool) Misses() int64 { return bp.reads.Load() }

// ResetStats zeroes the I/O counters.
func (bp *BufferPool) ResetStats() {
	bp.reads.Store(0)
	bp.writes.Store(0)
	bp.hits.Store(0)
}

// frameLocked returns the resident frame for id, faulting it in if needed.
// The latch is held.
func (bp *BufferPool) frameLocked(id PageID) (*frame, error) {
	if f, ok := bp.frames[id]; ok {
		bp.hits.Add(1)
		bp.unlink(f)
		bp.pushFront(f)
		return f, nil
	}
	f, err := bp.freeFrameLocked()
	if err != nil {
		return nil, err
	}
	if err := bp.pager.read(id, f.data); err != nil {
		return nil, err
	}
	f.id = id
	bp.reads.Add(1)
	bp.frames[id] = f
	bp.pushFront(f)
	return f, nil
}

// freeFrameLocked returns an unlinked, clean frame for the caller to fill: a
// freed page's or a new one while the pool has room, else the least recently
// used page's, written back first if dirty. Recycling is safe because page
// bytes never leave the latch, which the caller holds: nobody can still be
// reading the victim. A pool at capacity therefore allocates no frames at all.
func (bp *BufferPool) freeFrameLocked() (*frame, error) {
	if len(bp.frames) < bp.capacity {
		if n := len(bp.spare); n > 0 {
			f := bp.spare[n-1]
			bp.spare = bp.spare[:n-1]
			return f, nil
		}
		return &frame{data: make([]byte, PageSize)}, nil
	}
	victim := bp.tail
	if victim == nil {
		return nil, fmt.Errorf("storage: buffer pool empty during eviction")
	}
	if victim.dirty {
		if err := bp.pager.write(victim.id, victim.data); err != nil {
			return nil, err
		}
		bp.writes.Add(1)
		victim.dirty = false
		bp.dirty.Add(-1)
	}
	bp.unlink(victim)
	delete(bp.frames, victim.id)
	return victim, nil
}

func (bp *BufferPool) pushFront(f *frame) {
	f.prev = nil
	f.next = bp.head
	if bp.head != nil {
		bp.head.prev = f
	}
	bp.head = f
	if bp.tail == nil {
		bp.tail = f
	}
}

func (bp *BufferPool) unlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else if bp.head == f {
		bp.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else if bp.tail == f {
		bp.tail = f.prev
	}
	f.prev, f.next = nil, nil
}
