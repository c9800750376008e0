package storage

import (
	"encoding/binary"
	"fmt"
)

// Slotted heap page layout:
//
//	[0:2]  numSlots (u16)
//	[2:4]  freeStart (u16) — offset of the first free byte after the slot array
//	[4:6]  freeEnd (u16)   — offset one past the last free byte (records grow down)
//	then numSlots slot entries of 4 bytes each: offset (u16), length (u16)
//
// Records are stored from the end of the page downward; the slot array grows
// upward. A record's RID is (page, slot).
const (
	hdrSize  = 6
	slotSize = 4
)

// RID identifies a stored record.
type RID struct {
	Page PageID
	Slot uint16
}

func pageNumSlots(p []byte) uint16  { return binary.LittleEndian.Uint16(p[0:2]) }
func pageFreeStart(p []byte) uint16 { return binary.LittleEndian.Uint16(p[2:4]) }
func pageFreeEnd(p []byte) uint16   { return binary.LittleEndian.Uint16(p[4:6]) }

func initHeapPage(p []byte) {
	binary.LittleEndian.PutUint16(p[0:2], 0)
	binary.LittleEndian.PutUint16(p[2:4], hdrSize)
	binary.LittleEndian.PutUint16(p[4:6], PageSize)
}

func slotAt(p []byte, i uint16) (off, length uint16) {
	base := hdrSize + int(i)*slotSize
	return binary.LittleEndian.Uint16(p[base : base+2]), binary.LittleEndian.Uint16(p[base+2 : base+4])
}

// pageInsert stores rec in the page, returning its slot, or false when the
// page lacks space.
func pageInsert(p []byte, rec []byte) (uint16, bool) {
	n := pageNumSlots(p)
	freeStart := pageFreeStart(p)
	freeEnd := pageFreeEnd(p)
	need := len(rec) + slotSize
	if int(freeEnd)-int(freeStart) < need {
		return 0, false
	}
	newEnd := freeEnd - uint16(len(rec))
	copy(p[newEnd:freeEnd], rec)
	base := hdrSize + int(n)*slotSize
	binary.LittleEndian.PutUint16(p[base:base+2], newEnd)
	binary.LittleEndian.PutUint16(p[base+2:base+4], uint16(len(rec)))
	binary.LittleEndian.PutUint16(p[0:2], n+1)
	binary.LittleEndian.PutUint16(p[2:4], freeStart+slotSize)
	binary.LittleEndian.PutUint16(p[4:6], newEnd)
	return n, true
}

// HeapFile is an append-only sequence of slotted pages holding rows. A heap
// file has a single writer at a time (the engine's table life cycle
// guarantees this); rows are encoded into and decoded out of page bytes
// inside the pool's accessors, under the page's shard lock.
type HeapFile struct {
	pool  *BufferPool
	pages []PageID
	rows  int64
	width int // values in the last inserted row: what a read of every column sizes its rows to
}

// NewHeapFile creates an empty heap file on the pool.
func NewHeapFile(pool *BufferPool) *HeapFile { return &HeapFile{pool: pool} }

// Rows returns the number of stored rows.
func (h *HeapFile) Rows() int64 { return h.rows }

// NumPages returns the number of pages in the file.
func (h *HeapFile) NumPages() int { return len(h.pages) }

// Insert appends a row and returns its RID.
func (h *HeapFile) Insert(r Row) (RID, error) {
	rec := encodeRow(r)
	h.width = len(r)
	if len(rec)+hdrSize+slotSize > PageSize {
		return RID{}, fmt.Errorf("storage: row of %d bytes exceeds page capacity", len(rec))
	}
	var slot uint16
	var ok bool
	if len(h.pages) > 0 {
		pid := h.pages[len(h.pages)-1]
		err := h.pool.Update(pid, func(data []byte) error {
			slot, ok = pageInsert(data, rec)
			return nil
		})
		if err != nil {
			return RID{}, err
		}
		if ok {
			h.rows++
			return RID{Page: pid, Slot: slot}, nil
		}
	}
	pid, err := h.pool.AllocateWith(func(data []byte) {
		initHeapPage(data)
		slot, ok = pageInsert(data, rec)
	})
	if err != nil {
		return RID{}, err
	}
	if !ok {
		return RID{}, fmt.Errorf("storage: row does not fit in a fresh page")
	}
	h.pages = append(h.pages, pid)
	h.rows++
	return RID{Page: pid, Slot: slot}, nil
}

// slabRows is how many scanned rows share one backing array.
const slabRows = 256

// rowWidth is the number of values a row read at cols holds.
func (h *HeapFile) rowWidth(cols []int) int {
	if cols == nil {
		return h.width
	}
	return len(cols)
}

// Get fetches the row at rid.
func (h *HeapFile) Get(rid RID) (Row, error) { return h.GetCols(rid, nil) }

// GetCols fetches the values at the ascending positions cols (nil: all) of
// the row at rid.
func (h *HeapFile) GetCols(rid RID, cols []int) (r Row, err error) {
	err = h.pool.View(rid.Page, func(data []byte) error {
		if rid.Slot >= pageNumSlots(data) {
			return fmt.Errorf("storage: slot %d out of range on page %d", rid.Slot, rid.Page)
		}
		off, length := slotAt(data, rid.Slot)
		r, err = decodeRow(make(Row, 0, h.rowWidth(cols)), data[off:off+length], cols)
		return err
	})
	return r, err
}

// Scan visits every row in file order.
func (h *HeapFile) Scan(f func(rid RID, r Row) error) error { return h.ScanCols(nil, f) }

// ScanCols visits every row in file order, decoding only the values at the
// ascending positions cols (nil: all). One page at a time is decoded under
// its shard lock and the callbacks run after it, so f may use the pool — fault,
// evict, insert into an index — without reaching the page it is being fed
// from. The callback may keep the row: rows are carved len == cap from slabs
// of slabRows rows, so a scan allocates a few times per table, not once per
// row, and an append to one row cannot reach the next.
func (h *HeapFile) ScanCols(cols []int, f func(rid RID, r Row) error) error {
	width := h.rowWidth(cols)
	left := h.rows
	var slab Row
	var page []Row // the current page's rows, by slot
	decode := func(data []byte) (err error) {
		n := pageNumSlots(data)
		for s := uint16(0); s < n; s++ {
			if cap(slab)-len(slab) < width {
				slab = make(Row, 0, width*int(min(max(left, 1), slabRows)))
			}
			off, length := slotAt(data, s)
			start := len(slab)
			if slab, err = decodeRow(slab, data[off:off+length], cols); err != nil {
				return err
			}
			left--
			page = append(page, slab[start:len(slab):len(slab)])
		}
		return nil
	}
	for _, pid := range h.pages {
		page = page[:0]
		if err := h.pool.View(pid, decode); err != nil {
			return err
		}
		for s, r := range page {
			if err := f(RID{Page: pid, Slot: uint16(s)}, r); err != nil {
				return err
			}
		}
	}
	return nil
}
