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
func (h *HeapFile) Get(rid RID) (Row, error) { return h.GetCols(nil, rid, nil) }

// GetCols appends to dst the values at the ascending positions cols (nil:
// all) of the row at rid; a nil dst is sized to the row.
func (h *HeapFile) GetCols(dst Row, rid RID, cols []int) (r Row, err error) {
	if dst == nil {
		dst = make(Row, 0, h.rowWidth(cols))
	}
	err = h.pool.View(rid.Page, func(data []byte) error {
		if rid.Slot >= pageNumSlots(data) {
			return fmt.Errorf("storage: slot %d out of range on page %d", rid.Slot, rid.Page)
		}
		off, length := slotAt(data, rid.Slot)
		r, err = decodeRow(dst, data[off:off+length], cols)
		return err
	})
	return r, err
}

// HeapCursor pulls a heap file's rows in file order, decoding the values at
// the ascending positions cols (nil: all). One page at a time is decoded
// under its shard lock, so the puller may use the pool between rows without
// reaching the page it is being fed from. A row is valid until the Next that
// crosses into the following page, which decodes into the same slab; a
// puller that keeps a row longer copies it.
//
// A cursor may carry a list of Gates, which drop rows before they are
// decoded: a gated cursor delivers, in file order, the rows that pass them
// all. The gates of a record are tested one at a time, each on its own
// columns, decoded when it is reached if no gate before it decoded them; the
// first gate to fail the record drops it undecoded. A gate that drops a row
// moves a place forward in the list, so the gates that drop most come to be
// tested first.
type HeapCursor struct {
	h     *HeapFile
	cols  []int
	keep  bool    // ScanCols: rows are the callback's to keep, so no slab is reused
	gated *gating // nil until gates are set

	slab   Row
	page   []Row // the current page's rows that passed the gates, in slot order
	pos    int   // next of them to return
	next   int   // next of h.pages to decode
	left   int64 // records not yet examined
	faults int64 // pool misses its page reads took, over every pass
}

// gating is what a cursor holds once it has been given gates: kept apart so
// that a cursor nobody gates, the most common kind, stays small.
type gating struct {
	gates []Gate // empty: every row is decoded
	poll  func() error

	// seen holds, per position in a row, the stamp of the record a gate last
	// decoded there: the positions whose seen is stamp hold the values of
	// the record under test.
	seen  []uint32
	stamp uint32

	skipped int64 // records the gates dropped, over every pass
}

// A Gate is a test a record must pass before a HeapCursor decodes its row.
// Test is given a row in which the positions Cols — positions in the
// cursor's rows, not in the stored record — hold the record's values, and
// some other positions may too; it must read no other and keep nothing. It
// runs under the page's shard lock, so it must not use the pool. A Test that
// errs keeps the row: a gate is a pre-filter, and whoever reads the row
// reports the error. Dropped, when set, counts the rows the gate was the
// first to fail.
type Gate struct {
	Cols    []int
	Test    func(Row) (bool, error)
	Dropped *int64
}

// Cursor returns a cursor over the file, positioned before its first row.
func (h *HeapFile) Cursor(cols []int) *HeapCursor {
	c := &HeapCursor{h: h, cols: cols}
	c.Rewind()
	return c
}

// Rewind positions the cursor before the first row again. The slab and the
// gates stay.
func (c *HeapCursor) Rewind() {
	c.page, c.pos, c.next, c.left = c.page[:0], 0, 0, c.h.rows
}

// SetGates makes the cursor decode, of the records it examines from now on,
// only the rows that pass every one of gates, tested in the order given to
// begin with; none lets every row through again. Rows already decoded are
// delivered either way. poll, when set, is called after every row a gate
// drops, and its error ends the scan: a Next may drop many rows. The cursor
// keeps the list and reorders it in place, so the caller leaves it alone
// until it sets the gates again.
func (c *HeapCursor) SetGates(gates []Gate, poll func() error) {
	if c.gated == nil {
		if len(gates) == 0 {
			return
		}
		c.gated = &gating{}
	}
	c.gated.gates, c.gated.poll = gates, poll
}

// Remaining is the number of rows not yet examined, plus the decoded ones
// not yet handed over: the rows still to come when no gate is set, and an
// upper bound on them when one is.
func (c *HeapCursor) Remaining() int64 { return c.left + int64(len(c.page)-c.pos) }

// Decoded is the number of coming Next calls that hand over a row already
// decoded; the one after them reads a page (or ends the file).
func (c *HeapCursor) Decoded() int { return len(c.page) - c.pos }

// Faults is the number of pool misses the cursor's page reads have caused
// since it was created. Like the pool's counters it is exact for a serial
// caller and approximate while other goroutines fault pages too.
func (c *HeapCursor) Faults() int64 { return c.faults }

// Skipped is the number of records the gates have dropped since the cursor
// was created.
func (c *HeapCursor) Skipped() int64 {
	if c.gated == nil {
		return 0
	}
	return c.gated.skipped
}

// Next returns the next row, ok=false after the last.
func (c *HeapCursor) Next() (r Row, ok bool, err error) {
	for c.pos == len(c.page) {
		if ok, err := c.nextPage(); err != nil || !ok {
			return nil, false, err
		}
	}
	r = c.page[c.pos]
	c.pos++
	return r, true, nil
}

// nextPage decodes the next page of the file into c.page; ok=false at the end
// of the file.
func (c *HeapCursor) nextPage() (ok bool, err error) {
	if c.next == len(c.h.pages) {
		return false, nil
	}
	c.page, c.pos = c.page[:0], 0
	misses := c.h.pool.Misses()
	err = c.h.pool.View(c.h.pages[c.next], c.decodePage)
	c.faults += c.h.pool.Misses() - misses
	c.next++
	return err == nil, err
}

// decodePage is the one routine that turns a heap page into rows. Each record
// is located (and so checked) in full and given its place in the slab; the
// gates decode their columns there and test them, and only a row that passes
// is decoded whole — what they decoded is not decoded again — and kept:
// carved len == cap, so an append to one cannot reach the next.
func (c *HeapCursor) decodePage(data []byte) (err error) {
	n := pageNumSlots(data)
	width := c.h.rowWidth(c.cols)
	if cap(c.page) < int(n) {
		c.page = make([]Row, 0, n)
	}
	if !c.keep {
		// The last page's rows are no longer valid: decode over them.
		if c.slab = c.slab[:0]; cap(c.slab) < width*int(n) {
			c.slab = make(Row, 0, width*int(n))
		}
	}
	var at [32]int
	offs := at[:0] // the record's value offsets, by position in its row
	for s := uint16(0); s < n; s++ {
		off, length := slotAt(data, s)
		rec := data[off : off+length]
		if offs, err = locate(offs[:0], rec, c.cols); err != nil {
			return err
		}
		c.left--
		w := len(offs)
		if cap(c.slab)-len(c.slab) < w {
			c.slab = make(Row, 0, max(width, w)*int(min(c.left+1, slabRows)))
		}
		start := len(c.slab)
		row := c.slab[start : start+w : start+w]
		if g := c.gated; g == nil || len(g.gates) == 0 {
			for k, o := range offs {
				decodeAt(&row[k], rec, o)
			}
		} else {
			if pass, err := g.admit(row, rec, offs); err != nil || !pass {
				if err != nil {
					return err
				}
				continue // the place is the next record's
			}
			for k, o := range offs {
				if g.seen[k] != g.stamp {
					decodeAt(&row[k], rec, o)
				}
			}
		}
		c.slab = c.slab[:start+w]
		c.page = append(c.page, row)
	}
	return nil
}

// admit tests a located record against the gates in their order, decoding
// into row, the place the record's row would take, each gate's columns that
// no gate before it decoded. The first gate to fail the record drops it and
// swaps places with the gate before it. err is poll's.
func (g *gating) admit(row Row, rec []byte, offs []int) (pass bool, err error) {
	if g.stamp++; g.stamp == 0 { // wrapped: every place's stamp is stale again
		clear(g.seen)
		g.stamp = 1
	}
	if len(g.seen) < len(row) {
		g.seen = append(g.seen, make([]uint32, len(row)-len(g.seen))...)
	}
	for i := range g.gates {
		gate := &g.gates[i]
		for _, col := range gate.Cols {
			if col >= len(row) {
				return true, nil // a record too short to test is decoded, and tested by whoever reads it
			}
			if g.seen[col] != g.stamp {
				decodeAt(&row[col], rec, offs[col])
				g.seen[col] = g.stamp
			}
		}
		if ok, err := gate.Test(row); ok || err != nil {
			continue
		}
		g.skipped++
		if gate.Dropped != nil {
			*gate.Dropped++
		}
		if i > 0 {
			g.gates[i-1], g.gates[i] = g.gates[i], g.gates[i-1]
		}
		if g.poll != nil {
			return false, g.poll()
		}
		return false, nil
	}
	return true, nil
}

// Scan visits every row in file order.
func (h *HeapFile) Scan(f func(rid RID, r Row) error) error { return h.ScanCols(nil, f) }

// ScanCols visits every row in file order, decoding only the values at the
// ascending positions cols (nil: all). One page at a time is decoded under
// its shard lock and the callbacks run after it, so f may use the pool — fault,
// evict, insert into an index — without reaching the page it is being fed
// from. The callback may keep the row: rows are carved len == cap from slabs
// of slabRows rows that are never decoded into twice, so a scan allocates a
// few times per table, not once per row, and an append to one row cannot
// reach the next.
func (h *HeapFile) ScanCols(cols []int, f func(rid RID, r Row) error) error {
	c := h.Cursor(cols)
	c.keep = true
	for {
		ok, err := c.nextPage()
		if err != nil || !ok {
			return err
		}
		pid := h.pages[c.next-1]
		for s, r := range c.page {
			if err := f(RID{Page: pid, Slot: uint16(s)}, r); err != nil {
				return err
			}
		}
	}
}
