// Package storage implements the paged storage engine the execution engine
// runs on: a pager over fixed 4 KB pages, a sharded buffer pool with LRU
// eviction and I/O accounting, slotted heap pages, heap files, and B+-tree
// indices.
//
// The engine substitutes for the commercial DBMS the paper used in its
// Figure 7 execution experiment: every page read/write is counted, so a run
// reports a simulated I/O time using the paper's cost constants alongside
// wall-clock time.
//
// Concurrency model: the pager and buffer pool are safe for concurrent use
// (the pool shards its frame table and LRU by page id, so independent plan
// executions fault and evict pages in parallel instead of serializing on
// one pool lock), and there is one access rule: page bytes never leave the
// shard lock. View, Update and AllocateWith run a callback on a page's bytes
// with the page's shard locked; nothing hands the bytes out, so the lock is
// the pin. That is what lets an eviction pass its victim's frame straight to
// the fault that caused it — no reader can be looking at the old page — and
// what keeps eviction from writing back or dropping a page mid-mutation. A
// callback decodes, copies out or edits in place; it must not keep the slice
// and must not call into the pool (its lock is held, and locks do not
// nest). What a table's pages *say* is still synchronized by ownership:
// every page belongs to exactly one heap file or B-tree, and the engine's
// table life cycle guarantees a table is never written and read
// concurrently (base tables are read-only after load, temp tables are
// private to their run, cache tables become visible to other runs only
// after their writer committed).
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
// disk volume. It is safe for concurrent use; reads and writes of distinct
// allocated pages proceed in parallel under a shared lock (each page's
// backing slice is stable once allocated, and page-content ownership is the
// buffer pool's concern). The pages of dropped tables go on a free list that
// Allocate takes from before it grows the array.
type Pager struct {
	mu    sync.RWMutex
	pages [][]byte
	freed []PageID
}

// NewPager returns an empty pager.
func NewPager() *Pager { return &Pager{} }

// Allocate returns a zeroed page: a freed one if there is any, else a new one.
func (p *Pager) Allocate() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.freed); n > 0 {
		id := p.freed[n-1]
		p.freed = p.freed[:n-1]
		clear(p.pages[id])
		return id
	}
	p.pages = append(p.pages, make([]byte, PageSize))
	return PageID(len(p.pages) - 1)
}

func (p *Pager) free(ids []PageID) {
	p.mu.Lock()
	p.freed = append(p.freed, ids...)
	p.mu.Unlock()
}

// NumPages returns the number of allocated pages, free ones included.
func (p *Pager) NumPages() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.pages)
}

func (p *Pager) slot(id PageID) ([]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(p.pages) {
		return nil, fmt.Errorf("storage: access to unallocated page %d", id)
	}
	return p.pages[id], nil
}

func (p *Pager) read(id PageID, buf []byte) error {
	s, err := p.slot(id)
	if err != nil {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(buf, s)
	return nil
}

func (p *Pager) write(id PageID, buf []byte) error {
	s, err := p.slot(id)
	if err != nil {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	copy(s, buf)
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

// poolShard is one independently locked slice of the buffer pool: its own
// frame table, LRU chain and capacity share.
type poolShard struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*frame
	head     *frame   // most recently used
	tail     *frame   // least recently used
	spare    []*frame // frames of freed pages, for the next fault to fill
}

// DefaultPoolShards is the buffer pool's shard count: pages hash to shards
// by id, so sequentially allocated heap pages spread round-robin and
// concurrent runs rarely contend on one shard lock.
const DefaultPoolShards = 8

// BufferPool caches pages with per-shard LRU replacement and lock-free I/O
// accounting. All methods are safe for concurrent use; see the package
// comment for the page-content ownership rules.
type BufferPool struct {
	pager  PageStore
	shards []poolShard

	reads  atomic.Int64
	writes atomic.Int64
	hits   atomic.Int64
	// dirty counts resident dirty frames, so Flush can tell without a walk
	// that it has nothing to write.
	dirty atomic.Int64
}

// NewBufferPool creates a pool holding up to capacity pages (at least 8),
// split evenly across DefaultPoolShards shards.
func NewBufferPool(pager PageStore, capacity int) *BufferPool {
	perShard := (max(capacity, 8) + DefaultPoolShards - 1) / DefaultPoolShards
	bp := &BufferPool{pager: pager, shards: make([]poolShard, DefaultPoolShards)}
	for i := range bp.shards {
		bp.shards[i] = poolShard{capacity: perShard, frames: map[PageID]*frame{}}
	}
	return bp
}

func (bp *BufferPool) shard(id PageID) *poolShard {
	return &bp.shards[uint32(id)%uint32(len(bp.shards))]
}

// View applies fn to the page's bytes under the page's shard lock, faulting
// the page in if needed. It is the only way to read a page: data is the
// pool's frame, valid until fn returns and not to be written.
func (bp *BufferPool) View(id PageID, fn func(data []byte) error) error {
	return bp.access(id, fn, false)
}

// Update is View for writers: fn may edit the page's bytes, and the page is
// marked dirty unless fn fails. Eviction needs the same shard lock, so it can
// never write back or drop the frame mid-mutation and no update is ever lost.
func (bp *BufferPool) Update(id PageID, fn func(data []byte) error) error {
	return bp.access(id, fn, true)
}

func (bp *BufferPool) access(id PageID, fn func(data []byte) error, write bool) error {
	s := bp.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := bp.frameLocked(s, id)
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
// shard lock, and leaves it resident and dirty. The atomic
// allocate-initialize replaces the old Allocate/MarkDirty pair, whose
// window allowed a concurrent eviction to persist a half-initialized page.
func (bp *BufferPool) AllocateWith(init func(data []byte)) (PageID, error) {
	id := bp.pager.Allocate()
	s := bp.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := bp.freeFrameLocked(s)
	if err != nil {
		return InvalidPage, err
	}
	// A new page is zeroed: initHeapPage writes a header, not the body, and
	// what a recycled frame held would otherwise reach the backing store.
	clear(f.data)
	f.id, f.dirty = id, true
	bp.dirty.Add(1)
	// Allocation faults count as reads, matching the original pool's
	// accounting (the paper's cost model charges first-touch I/O); the
	// calibration constants and bench gates are built on these counters.
	bp.reads.Add(1)
	s.frames[id] = f
	s.pushFront(f)
	if init != nil {
		init(f.data)
	}
	return id, nil
}

// Free forgets the frames of pages nobody will read again — those of a
// dropped table — without writing them back, then hands the pages to the
// backing store for reuse.
func (bp *BufferPool) Free(ids []PageID) {
	for _, id := range ids {
		s := bp.shard(id)
		s.mu.Lock()
		if f, ok := s.frames[id]; ok {
			if f.dirty {
				f.dirty = false
				bp.dirty.Add(-1)
			}
			s.unlink(f)
			delete(s.frames, id)
			s.spare = append(s.spare, f)
		}
		s.mu.Unlock()
	}
	bp.pager.free(ids)
}

// Flush writes back all dirty pages. With none, it returns without taking a
// shard lock.
func (bp *BufferPool) Flush() error {
	if bp.dirty.Load() == 0 {
		return nil
	}
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty {
				if err := bp.pager.write(f.id, f.data); err != nil {
					s.mu.Unlock()
					return err
				}
				bp.writes.Add(1)
				f.dirty = false
				bp.dirty.Add(-1)
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// Stats snapshots the I/O counters.
func (bp *BufferPool) Stats() IOStats {
	return IOStats{Reads: bp.reads.Load(), Writes: bp.writes.Load(), Hits: bp.hits.Load()}
}

// NumPages is the number of pages the backing store holds, free or in use.
func (bp *BufferPool) NumPages() int { return bp.pager.NumPages() }

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
// The shard lock is held.
func (bp *BufferPool) frameLocked(s *poolShard, id PageID) (*frame, error) {
	if f, ok := s.frames[id]; ok {
		bp.hits.Add(1)
		s.touch(f)
		return f, nil
	}
	f, err := bp.freeFrameLocked(s)
	if err != nil {
		return nil, err
	}
	if err := bp.pager.read(id, f.data); err != nil {
		return nil, err
	}
	f.id = id
	bp.reads.Add(1)
	s.frames[id] = f
	s.pushFront(f)
	return f, nil
}

// freeFrameLocked returns an unlinked, clean frame for the caller to fill: a
// freed page's or a new one while the shard has room, else the least recently used page's,
// written back first if dirty. Recycling is safe because page bytes never
// leave the shard lock, which the caller holds: nobody can still be reading
// the victim. A pool at capacity therefore allocates no frames at all.
func (bp *BufferPool) freeFrameLocked(s *poolShard) (*frame, error) {
	if len(s.frames) < s.capacity {
		if n := len(s.spare); n > 0 {
			f := s.spare[n-1]
			s.spare = s.spare[:n-1]
			return f, nil
		}
		return &frame{data: make([]byte, PageSize)}, nil
	}
	victim := s.tail
	if victim == nil {
		return nil, fmt.Errorf("storage: buffer pool shard empty during eviction")
	}
	if victim.dirty {
		if err := bp.pager.write(victim.id, victim.data); err != nil {
			return nil, err
		}
		bp.writes.Add(1)
		victim.dirty = false
		bp.dirty.Add(-1)
	}
	s.unlink(victim)
	delete(s.frames, victim.id)
	return victim, nil
}

func (s *poolShard) touch(f *frame) {
	s.unlink(f)
	s.pushFront(f)
}

func (s *poolShard) pushFront(f *frame) {
	f.prev = nil
	f.next = s.head
	if s.head != nil {
		s.head.prev = f
	}
	s.head = f
	if s.tail == nil {
		s.tail = f
	}
}

func (s *poolShard) unlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else if s.head == f {
		s.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else if s.tail == f {
		s.tail = f.prev
	}
	f.prev, f.next = nil, nil
}
