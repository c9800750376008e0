package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"mqo/internal/algebra"
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
// inside the pool's accessors, under the pool latch.
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

// slabRows is how many rows a scan whose rows are the reader's to keep
// (ScanCols) carves from one backing array.
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
// the ascending positions cols (nil: all). Its rows come from passes over the
// file (Pass): alone, its Next reads the file a page at a time through a pass
// of its own; given a feed (SetFeed), it waits instead to be fed by a pass it
// shares with other cursors of the file. Either way a page is decoded under
// the pool latch, so the puller may use the pool between rows without
// reaching the page it is being fed from. A row is valid until the Next that
// asks for rows the cursor has not been fed yet, which are decoded over it; a
// puller that keeps a row longer copies it.
//
// A cursor may carry a list of Gates, which drop rows before they are
// decoded: a gated cursor delivers, in file order, the rows that pass them
// all. The gates of a record are tested one at a time, each on its own
// columns, decoded when it is reached unless a gate before it decoded them;
// the first gate to fail the record drops it undecoded and counts it. Key
// gates come first, in ascending order of the file column they read and, on
// one column, in list order, and keep that order; the other gates follow, and
// one that drops a row moves a place forward among them, so those that drop
// most come to be tested first. The order is the same whether the cursor
// reads alone or a pass tests its key gates for it (Pass), so every record is
// counted against the same gate either way.
type HeapCursor struct {
	h      *HeapFile
	cols   []int
	keep   bool    // ScanCols: rows are the callback's to keep, so no slab is reused
	spent  bool    // Next handed over every row fed and asked for more: they may be decoded over
	shared int32   // cursors fed by the largest pass that has fed it
	gated  *gating // nil until gates are set

	slab   Row
	rows   []Row // rows fed and not yet handed over are rows[pos:]
	pos    int
	next   int   // next of h.pages to feed it from
	left   int64 // records not yet examined
	faults int64 // pool misses of the pages read for it, over every pass
	err    error // what made the pass that fed it let it go, for Next to report

	feed func(*HeapCursor) error // set: Next waits to be fed instead of reading alone
	pass *Pass                   // the pass feeding it, nil when none
	self [1]*HeapCursor          // the cursors of the pass it reads alone through
	upos []int                   // where its columns stand among the pass's (nil: at the same positions)
}

// gating is what a cursor holds once it has been given gates: kept apart so
// that a cursor nobody gates, the most common kind, stays small.
type gating struct {
	gates []Gate // in the order they are tested; empty: every row is decoded
	keys  int    // gates[:keys] are the Key gates
	poll  func() error

	// seen holds, per position in a row, the stamp of the record a gate last
	// decoded there: the positions whose seen is stamp hold the values of
	// the record under test.
	seen  []uint32
	stamp uint32

	skipped int64 // records the gates dropped, over every pass
}

// A Gate is a test a record must pass before a HeapCursor decodes its row.
// Cols are positions in the cursor's rows, not in the stored record. A gate
// sets exactly one of Key and Test. Key tests the one column Cols[0]: it is
// given that value alone and never errs, which lets a pass that feeds several
// cursors decode a column once and test every cursor's key gates on it
// (Pass). Test is given a row in which the positions Cols hold the record's
// values, and some other positions may too; it must read no other and keep
// nothing. A Test that errs keeps the row: a gate is a pre-filter, and
// whoever reads the row reports the error. Either runs under the pool latch,
// so it must not use the pool. Dropped, when set, counts the rows the
// gate was the first to fail.
type Gate struct {
	Cols    []int
	Key     func(algebra.Value) bool
	Test    func(Row) (bool, error)
	Dropped *int64
}

// Cursor returns a cursor over the file, positioned before its first row.
func (h *HeapFile) Cursor(cols []int) *HeapCursor {
	c := &HeapCursor{h: h, cols: cols}
	c.Rewind()
	return c
}

// Rewind positions the cursor before the first row again, out of any pass.
// The slab, the gates and the feed stay.
func (c *HeapCursor) Rewind() {
	c.Leave()
	c.rows, c.pos, c.next, c.left, c.err, c.spent = c.rows[:0], 0, 0, c.h.rows, nil, true
}

// Leave takes the cursor out of the pass feeding it, if any: the rows it was
// fed stay its own, and it is fed no more of that pass.
func (c *HeapCursor) Leave() {
	p := c.pass
	if p == nil {
		return
	}
	c.pass = nil
	if i := slices.Index(p.cons, c); i >= 0 {
		p.cons = slices.Delete(p.cons, i, i+1)
		p.regroup = true
	}
}

// SetGates makes the cursor decode, of the records it examines from now on,
// only the rows that pass every one of gates: the Key gates in ascending
// order of their file column, then the others in the order given to begin
// with; none lets every row through again. Rows already decoded are
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
	slices.SortStableFunc(gates, func(a, b Gate) int { return cmp.Compare(c.testRank(a), c.testRank(b)) })
	keys := 0
	for keys < len(gates) && gates[keys].Key != nil {
		keys++
	}
	c.gated.gates, c.gated.keys, c.gated.poll = gates, keys, poll
	if c.pass != nil {
		c.pass.regroup = true
	}
}

// testRank places a gate in the cursor's test order: a Key gate by the file
// column it reads, after every such gate one that reads outside the cursor's
// columns, and every other gate last.
func (c *HeapCursor) testRank(g Gate) int {
	if g.Key == nil {
		return math.MaxInt
	}
	switch pos := g.Cols[0]; {
	case c.cols == nil:
		return pos
	case pos < len(c.cols):
		return c.cols[pos]
	}
	return math.MaxInt - 1
}

// SetFeed makes the cursor's Next, once it has handed over every row it was
// fed and the file has more, call feed instead of reading a page alone. feed
// is to return once the cursor is Fed — by having it join a Pass that its
// caller steps — or with the error that ends the scan.
func (c *HeapCursor) SetFeed(feed func(*HeapCursor) error) { c.feed = feed }

// Fed reports whether the cursor's coming Next calls can do without another
// page for now: it has an error to report, has been fed to the end of the
// file, or holds as many rows as its slab takes.
func (c *HeapCursor) Fed() bool { return c.err != nil || c.next >= len(c.h.pages) || c.full() }

// full reports whether the cursor, fed by a pass, holds rows not yet handed
// over and has no room left in its slab for another page of them.
func (c *HeapCursor) full() bool {
	return c.pass != nil && !c.spent && c.pos < len(c.rows) &&
		cap(c.slab)-len(c.slab) < c.h.rowWidth(c.cols)*c.pass.slots
}

// Heap is the file the cursor reads.
func (c *HeapCursor) Heap() *HeapFile { return c.h }

// Pass is the pass feeding the cursor, nil when none is.
func (c *HeapCursor) Pass() *Pass { return c.pass }

// Remaining is the number of rows not yet examined, plus the decoded ones
// not yet handed over: the rows still to come when no gate is set, and an
// upper bound on them when one is.
func (c *HeapCursor) Remaining() int64 { return c.left + int64(len(c.rows)-c.pos) }

// Decoded is the number of coming Next calls that hand over a row already
// decoded; the one after them asks for more (or ends the file).
func (c *HeapCursor) Decoded() int { return len(c.rows) - c.pos }

// Faults is the number of pool misses the page reads counted against the
// cursor have caused since it was created: a pass counts each page it reads
// against the first of the cursors it feeds. Like the pool's counters it is
// exact for a serial caller and approximate while other goroutines fault
// pages too.
func (c *HeapCursor) Faults() int64 { return c.faults }

// Shared is the number of cursors fed by the largest pass that has fed this
// one: 1 for a cursor that has only read alone, 0 for one that has read
// nothing.
func (c *HeapCursor) Shared() int { return int(c.shared) }

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
	for c.pos == len(c.rows) {
		if c.err != nil {
			err, c.err = c.err, nil
			return nil, false, err
		}
		if c.next >= len(c.h.pages) {
			return nil, false, nil
		}
		c.spent = true
		if c.feed != nil {
			err = c.feed(c)
		} else {
			err = c.readAlone()
		}
		if err != nil {
			return nil, false, err
		}
	}
	r = c.rows[c.pos]
	c.pos++
	return r, true, nil
}

// readAlone feeds the cursor the next page of the file through a pass of its
// own, which reads the cursor's columns.
func (c *HeapCursor) readAlone() (err error) {
	c.self[0] = c
	p := Pass{h: c.h, cons: c.self[:], next: c.next}
	p.Step()
	err, c.err = c.err, nil
	return err
}

// A Pass reads a heap file's pages in file order, each once, for every
// cursor it feeds. It faults a page once and locates each record once, over
// the union of the cursors' columns; then each cursor's own gate list tests
// the record, and a row that passes a cursor's gates is decoded into that
// cursor's slab and fed to it. A lone cursor's Next reads through a pass of
// its own; one that several cursors share is stepped by whoever drives them
// (SetFeed).
//
// A pass that feeds 2 to 64 cursors tests their Key gates itself, once per
// record for them all. It groups the gates by the column they read when it
// starts, and again when its cursors or a cursor's gates change, never per
// page. A record's live mask has a bit for each cursor with key gates; the
// pass decodes each grouped column of the record once, unless none of the
// column's cursors is still live, and calls each live cursor's gates on it,
// in that cursor's order (HeapCursor), clearing the cursor's bit and counting
// the record against the first gate that fails it. A cursor then drops a
// record whose bit is clear with one bit test, and runs only its other gates
// on the rest.
//
// Cursors join a pass before it reads a page, and it starts where they stand,
// so each is fed its rows in file order; one that comes later waits for
// another pass. A cursor that, when the pass reads a page, still holds as
// many rows as its slab takes — its puller is busy elsewhere — is let go, and
// is fed by another pass from that page on: no cursor holds more than a slab.
type Pass struct {
	h       *HeapFile
	cons    []*HeapCursor
	next    int   // next of h.pages to read
	started bool  // it has read a page, or is reading one
	regroup bool  // cons or a cursor's gates changed since the last group
	cols    []int // the union of the cursors' columns, ascending; nil: all
	slots   int   // the most records a page it has read held

	keyed uint64    // bit i: the pass tests the key gates of cons[i]
	keys  []keyGate // those gates, by the column they read, ascending
	reach int       // the fewest located values a record it tests has
	spill *page     // for pages larger than decodePage's arrays, grown to slots
}

// page is what a pass that feeds several cursors has found in the page it is
// reading: record s has its values at the pass's columns at offsets
// offs[starts[s]:starts[s+1]] and, when the pass tests key gates, the live
// mask live[s], the bits of keyed whose cursor's key gates it passed.
type page struct {
	offs, starts []int
	live         []uint64
}

// keyGate is a cursor's key gate that a pass tests for it.
type keyGate struct {
	pos     int    // of the column it reads, among the pass's columns
	bit     uint64 // the cursor's
	key     func(algebra.Value) bool
	dropped *int64
	g       *gating // the cursor's
}

// NewPass returns a pass over the file that no cursor has joined.
func (h *HeapFile) NewPass() *Pass { return &Pass{h: h} }

// Join makes the pass feed c, which no pass feeds yet; ok=false when the pass
// has read a page already or starts elsewhere in the file than c stands. The
// first cursor to join a pass sets where it starts.
func (p *Pass) Join(c *HeapCursor) (ok bool) {
	switch {
	case p.started || c.pass != nil || c.h != p.h:
		return false
	case len(p.cons) == 0:
		p.next = c.next
	case c.next != p.next:
		return false
	}
	p.cons = append(p.cons, c)
	c.pass = p
	return true
}

// KeyTested is the number of cursors whose key gates the pass tests for them,
// as it grouped them for the last page it read.
func (p *Pass) KeyTested() int { return bits.OnesCount64(p.keyed) }

// Started reports whether the pass has read a page.
func (p *Pass) Started() bool { return p.started }

// Heap is the file the pass reads.
func (p *Pass) Heap() *HeapFile { return p.h }

// Cursors are the cursors the pass feeds, in the order they joined; its page
// reads are counted against the first (HeapCursor.Faults). The slice is the
// pass's own, for the caller to read before the next Step.
func (p *Pass) Cursors() []*HeapCursor { return p.cons }

// Step reads the pass's next page and feeds each cursor its rows; at the end
// of the file, or with no cursor to feed, it lets every cursor go. A cursor
// the page fails for — a damaged record, or the poll of its gates — is handed
// the error, which its Next reports, and let go.
func (p *Pass) Step() {
	if !p.started {
		p.start()
	}
	cons := p.cons[:0]
	for _, c := range p.cons {
		if c.full() {
			c.pass = nil // busy elsewhere: fed by another pass when it asks
			continue
		}
		if c.spent {
			c.rows, c.pos, c.spent = c.rows[:0], 0, false
			if !c.keep {
				c.slab = c.slab[:0]
			}
		}
		cons = append(cons, c)
	}
	clear(p.cons[len(cons):])
	if len(cons) < len(p.cons) {
		p.regroup = true
	}
	p.cons = cons
	if len(p.cons) == 0 || p.next >= len(p.h.pages) {
		p.finish()
		return
	}
	if p.regroup {
		p.group()
	}
	pool := p.h.pool
	misses := pool.Misses()
	err := pool.View(p.h.pages[p.next], p.decodePage)
	p.cons[0].faults += pool.Misses() - misses
	p.next++
	cons = p.cons[:0]
	for _, c := range p.cons {
		if c.next = p.next; err != nil {
			c.err = err
		}
		if c.err != nil {
			c.pass = nil
			continue
		}
		cons = append(cons, c)
	}
	clear(p.cons[len(cons):])
	if len(cons) < len(p.cons) {
		p.regroup = true
	}
	if p.cons = cons; p.next >= len(p.h.pages) {
		p.finish()
	}
}

// finish lets every cursor of the pass go.
func (p *Pass) finish() {
	for _, c := range p.cons {
		c.pass = nil
	}
	clear(p.cons)
	p.cons = p.cons[:0]
}

// start fixes, before the first page, the columns the pass locates — all
// that any of its cursors reads — and where each cursor's columns stand among
// them.
func (p *Pass) start() {
	p.started = true
	p.cols = p.cons[0].cols
	for _, c := range p.cons[1:] {
		p.cols = unionCols(p.cols, c.cols)
	}
	for _, c := range p.cons {
		c.upos = colPositions(c.cols, p.cols)
		c.shared = max(c.shared, int32(len(p.cons)))
	}
	p.regroup = true
}

// group sets which cursors' key gates the pass tests, and lists those gates
// by column: every key gate of each cursor whose key gates all read within
// its columns, when the pass feeds 2 to 64 cursors, else none.
func (p *Pass) group() {
	p.regroup, p.keyed, p.reach = false, 0, 0
	clear(p.keys)
	p.keys = p.keys[:0]
	if len(p.cons) < 2 || len(p.cons) > 64 {
		return
	}
	n := 0
	for _, c := range p.cons {
		if c.keysShared() {
			n += c.gated.keys
		}
	}
	p.keys = slices.Grow(p.keys, n)
	for i, c := range p.cons {
		if !c.keysShared() {
			continue
		}
		g, bit := c.gated, uint64(1)<<i
		p.keyed |= bit
		if n := len(c.upos); n > 0 {
			p.reach = max(p.reach, c.upos[n-1]+1) // a shorter record is the cursor's to report
		}
		for _, k := range g.gates[:g.keys] {
			pos := position(c.upos, k.Cols[0])
			p.reach = max(p.reach, pos+1)
			p.keys = append(p.keys, keyGate{pos: pos, bit: bit, key: k.Key, dropped: k.Dropped, g: g})
		}
	}
	// Positions ascend with file columns, and the sort keeps each cursor's
	// gates on one column in its order.
	slices.SortStableFunc(p.keys, func(a, b keyGate) int { return cmp.Compare(a.pos, b.pos) })
}

// keysShared reports whether a pass that feeds other cursors too may test
// the cursor's key gates: it has some, and they read within its columns.
func (c *HeapCursor) keysShared() bool {
	g := c.gated
	if g == nil || g.keys == 0 {
		return false
	}
	for _, k := range g.gates[:g.keys] {
		if c.cols != nil && k.Cols[0] >= len(c.cols) {
			return false
		}
	}
	return true
}

// unionCols is the ascending union of two ascending column lists, nil (all)
// when either is.
func unionCols(a, b []int) []int {
	if a == nil || b == nil {
		return nil
	}
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case len(a) == 0 || b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return out
}

// colPositions is where each of cols, a subset of all, stands among all: nil
// when at the same positions. A pass that locates every column (all nil)
// finds column k at position k.
func colPositions(cols, all []int) []int {
	switch {
	case all == nil:
		return cols
	case len(cols) == len(all):
		return nil
	}
	pos := make([]int, len(cols))
	j := 0
	for k, col := range cols {
		for all[j] != col {
			j++
		}
		pos[k] = j
	}
	return pos
}

// decodePage is the one routine that turns a heap page into rows: each cursor
// in turn takes the page's records (take). A lone cursor locates each
// record itself as it takes it; for several, each record is located once,
// over the union of their columns, and tested against the key gates the pass
// groups, before they take the page.
func (p *Pass) decodePage(data []byte) (err error) {
	n := int(pageNumSlots(data))
	p.slots = max(p.slots, n)
	if len(p.cons) == 1 {
		return p.cons[0].take(data, n, p, nil, 0)
	}
	var offsAt [512]int
	var startsAt [129]int
	var liveAt [128]uint64
	pg := page{offs: offsAt[:0], starts: startsAt[:0], live: liveAt[:0]}
	if w := p.width(); n >= len(startsAt) || n*w > len(offsAt) {
		if p.spill == nil || cap(p.spill.starts) <= n {
			p.spill = &page{make([]int, 0, p.slots*w), make([]int, 0, p.slots+1), make([]uint64, 0, p.slots)}
		}
		pg = *p.spill
	}
	pg.starts = append(pg.starts, 0)
	for s := 0; s < n; s++ {
		off, length := slotAt(data, uint16(s))
		if pg.offs, err = locate(pg.offs, data[off:off+length], p.cols); err != nil {
			return err
		}
		pg.starts = append(pg.starts, len(pg.offs))
	}
	if p.keyed != 0 {
		p.testKeys(&pg, data, n)
	}
	for i, c := range p.cons {
		c.err = c.take(data, n, p, &pg, p.keyed&(1<<uint(i)))
	}
	return nil
}

// width is the number of values the pass locates in a record: when it
// locates them all, as many as the file's last row had.
func (p *Pass) width() int {
	if p.cols == nil {
		return p.h.width
	}
	return len(p.cols)
}

// testKeys sets the live mask of each of the page's n records that has the
// values the grouped gates read, counting each record a gate is the first of
// its cursor's to fail. A column is decoded when the first gate on it whose
// cursor is still live is reached, so not at all when none is.
func (p *Pass) testKeys(pg *page, data []byte, n int) {
	pg.live = pg.live[:n]
	for s := 0; s < n; s++ {
		live := p.keyed
		if offs := pg.offs[pg.starts[s]:pg.starts[s+1]]; len(offs) >= p.reach {
			off, length := slotAt(data, uint16(s))
			rec := data[off : off+length]
			var v algebra.Value
			at := -1 // the position v was decoded from
			for k := range p.keys {
				kg := &p.keys[k]
				if live&kg.bit == 0 {
					continue
				}
				if kg.pos != at {
					decodeAt(&v, rec, offs[kg.pos])
					at = kg.pos
				}
				if !kg.key(v) {
					kg.g.skipped++
					if kg.dropped != nil {
						*kg.dropped++
					}
					if live &^= kg.bit; live == 0 {
						break
					}
				}
			}
		}
		pg.live[s] = live
	}
}

// take feeds the cursor the rows of the page's n records that pass its gates.
// pg is what the pass p found in the page, nil when the cursor is its only
// one and locates each record here. bit is the cursor's in the records' live
// masks, 0 when the pass does not test its key gates: a record the pass
// tested is dropped when the bit is clear, and otherwise meets only the
// cursor's other gates. The gates test a record in its row's place
// in the cursor's slab, and only a row that passes them all is decoded whole
// there — what they decoded is not decoded again — and fed: carved len ==
// cap, so an append to one cannot reach the next. err is a damaged record's,
// or the gates' poll's.
func (c *HeapCursor) take(data []byte, n int, p *Pass, pg *page, bit uint64) (err error) {
	if cap(c.rows) < n {
		c.rows = slices.Grow(c.rows, n-len(c.rows))
	}
	if need := c.h.rowWidth(c.cols) * n; !c.keep && len(c.slab) == 0 && cap(c.slab) < need {
		c.slab = make(Row, 0, need)
	}
	upos, g, cols := c.upos, c.gated, p.cols
	if g != nil && len(g.gates) == 0 {
		g = nil
	}
	var at [32]int
	offs := at[:0] // the record's value offsets, by position among cols
	for s := 0; s < n; s++ {
		c.left--
		from := 0 // the first gate to test the record
		if bit != 0 && pg.starts[s+1]-pg.starts[s] >= p.reach {
			if pg.live[s]&bit == 0 {
				if g.poll != nil {
					if err = g.poll(); err != nil {
						return err
					}
				}
				continue
			}
			from = g.keys
		}
		off, length := slotAt(data, uint16(s))
		rec := data[off : off+length]
		if pg == nil {
			if offs, err = locate(offs[:0], rec, cols); err != nil {
				return err
			}
		} else {
			offs = pg.offs[pg.starts[s]:pg.starts[s+1]]
		}
		w := len(offs)
		if upos != nil {
			if w = len(upos); cols == nil && w > 0 && upos[w-1] >= len(offs) {
				return fmt.Errorf("storage: column %d requested of a shorter row", upos[w-1])
			}
		}
		if cap(c.slab)-len(c.slab) < w {
			c.slab = make(Row, 0, c.slabFor(w, n))
		}
		start := len(c.slab)
		row := c.slab[start : start+w : start+w]
		switch {
		case g != nil && from < len(g.gates):
			if pass, err := g.admit(row, rec, offs, upos, from); !pass {
				if err != nil {
					return err
				}
				continue // the place is the next record's
			}
			for k := range row {
				if g.seen[k] != g.stamp {
					decodeAt(&row[k], rec, offs[position(upos, k)])
				}
			}
		case upos == nil:
			for k, o := range offs {
				decodeAt(&row[k], rec, o)
			}
		default:
			for k, u := range upos {
				decodeAt(&row[k], rec, offs[u])
			}
		}
		c.slab = c.slab[:start+w]
		c.rows = append(c.rows, row)
	}
	return nil
}

// position is where the k-th of a cursor's columns stands among the pass's,
// over which a record is located.
func position(upos []int, k int) int {
	if upos == nil {
		return k
	}
	return upos[k]
}

// slabFor is the size of the slab a cursor starts when its own has no room
// for a row of w values, in a page of n records: rows the reader keeps take
// slabs of slabRows rows, and other cursors twice as large a slab as they had
// or a page's, whichever is larger, which they go on reusing.
func (c *HeapCursor) slabFor(w, n int) int {
	w = max(w, c.h.rowWidth(c.cols))
	if c.keep {
		return w * int(min(c.left+1, slabRows))
	}
	return max(w*n, 2*cap(c.slab))
}

// admit tests a located record against gates[from:] in their order, decoding
// into row, the place the record's row would take, each Test gate's columns
// that no gate before it decoded; a Key gate is given its value alone. The
// first gate to fail the record drops it (drop). err is poll's.
func (g *gating) admit(row Row, rec []byte, offs, upos []int, from int) (pass bool, err error) {
	// The first gate, a key gate or the other that has dropped most, meets a
	// record nothing has decoded yet: only a record it passes needs its
	// columns marked.
	first := &g.gates[from]
	var ok bool
	if first.Key != nil {
		col := first.Cols[0]
		if col >= len(row) {
			return true, nil // a record too short to test is decoded, and tested by whoever reads it
		}
		var v algebra.Value
		decodeAt(&v, rec, offs[position(upos, col)])
		ok = first.Key(v)
	} else {
		for _, col := range first.Cols {
			if col >= len(row) {
				return true, nil
			}
			decodeAt(&row[col], rec, offs[position(upos, col)])
		}
		if ok, err = first.Test(row); err != nil {
			ok = true
		}
	}
	if !ok {
		g.skipped++ // drop(from), by hand: this is where a scan spends its time
		if first.Dropped != nil {
			*first.Dropped++
		}
		if g.poll != nil {
			return false, g.poll()
		}
		return false, nil
	}
	if g.stamp++; g.stamp == 0 { // wrapped: every place's stamp is stale again
		clear(g.seen)
		g.stamp = 1
	}
	if len(g.seen) < len(row) {
		g.seen = append(g.seen, make([]uint32, len(row)-len(g.seen))...)
	}
	if first.Key == nil {
		for _, col := range first.Cols {
			g.seen[col] = g.stamp
		}
	}
	for i := from + 1; i < len(g.gates); i++ {
		gate := &g.gates[i]
		if gate.Key != nil {
			col := gate.Cols[0]
			if col >= len(row) {
				return true, nil
			}
			var v algebra.Value
			decodeAt(&v, rec, offs[position(upos, col)])
			if !gate.Key(v) {
				return false, g.drop(i)
			}
			continue
		}
		for _, col := range gate.Cols {
			if col >= len(row) {
				return true, nil
			}
			if g.seen[col] != g.stamp {
				decodeAt(&row[col], rec, offs[position(upos, col)])
				g.seen[col] = g.stamp
			}
		}
		if ok, err := gate.Test(row); !ok && err == nil {
			return false, g.drop(i)
		}
	}
	return true, nil
}

// drop counts a record the i-th gate was the first to fail, moves that gate a
// place forward among the gates that are not key gates, and polls.
func (g *gating) drop(i int) error {
	g.skipped++
	if d := g.gates[i].Dropped; d != nil {
		*d++
	}
	if i > g.keys {
		g.gates[i-1], g.gates[i] = g.gates[i], g.gates[i-1]
	}
	if g.poll != nil {
		return g.poll()
	}
	return nil
}

// Scan visits every row in file order.
func (h *HeapFile) Scan(f func(rid RID, r Row) error) error { return h.ScanCols(nil, f) }

// ScanCols visits every row in file order, decoding only the values at the
// ascending positions cols (nil: all). One page at a time is decoded under
// the pool latch and the callbacks run after it, so f may use the pool — fault,
// evict, insert into an index — without reaching the page it is being fed
// from. The callback may keep the row: rows are carved len == cap from slabs
// of slabRows rows that are never decoded into twice, so a scan allocates a
// few times per table, not once per row, and an append to one row cannot
// reach the next.
func (h *HeapFile) ScanCols(cols []int, f func(rid RID, r Row) error) error {
	c := h.Cursor(cols)
	c.keep = true
	for c.next < len(h.pages) {
		pid := h.pages[c.next]
		c.spent = true
		if err := c.readAlone(); err != nil {
			return err
		}
		for s, r := range c.rows {
			if err := f(RID{Page: pid, Slot: uint16(s)}, r); err != nil {
				return err
			}
		}
	}
	return nil
}
