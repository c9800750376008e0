package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// FilePager is the disk-backed PageStore of the warm cache tier: one file
// per demoted cache table, pages addressed by offset. It is safe for
// concurrent use (ReadAt/WriteAt at distinct offsets proceed in parallel
// on the underlying file; the mutex only guards allocation and close).
// Close removes the file — a warm table's on-disk footprint lives exactly
// as long as its cache entry.
type FilePager struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	n      int
	closed bool
}

// NewFilePager creates (truncating) the backing file at path.
func NewFilePager(path string) (*FilePager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("storage: warm pager: %w", err)
	}
	return &FilePager{f: f, path: path}, nil
}

// Allocate extends the file by one zeroed page and returns its id.
func (p *FilePager) Allocate() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := PageID(p.n)
	p.n++
	return id
}

// NumPages returns the number of allocated pages.
func (p *FilePager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Bytes is the pager's on-disk footprint: allocated pages times the page
// size. This is the real byte accounting the cache charges against its
// warm budget.
func (p *FilePager) Bytes() int64 {
	return int64(p.NumPages()) * PageSize
}

// Path returns the backing file's path.
func (p *FilePager) Path() string { return p.path }

func (p *FilePager) read(id PageID, buf []byte) error {
	p.mu.Lock()
	if p.closed || int(id) < 0 || int(id) >= p.n {
		n := p.n
		p.mu.Unlock()
		return fmt.Errorf("storage: warm read of unallocated page %d (have %d)", id, n)
	}
	p.mu.Unlock()
	n, err := p.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	if err == io.EOF {
		// The file is extended on first write-back, so a read past EOF of
		// an allocated-but-never-flushed page is a zero page.
		for i := n; i < PageSize; i++ {
			buf[i] = 0
		}
		return nil
	}
	return err
}

func (p *FilePager) write(id PageID, buf []byte) error {
	p.mu.Lock()
	if p.closed || int(id) < 0 || int(id) >= p.n {
		n := p.n
		p.mu.Unlock()
		return fmt.Errorf("storage: warm write of unallocated page %d (have %d)", id, n)
	}
	p.mu.Unlock()
	_, err := p.f.WriteAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// Close closes and removes the backing file. Safe to call more than once.
func (p *FilePager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.f.Close()
	if rmErr := os.Remove(p.path); err == nil {
		err = rmErr
	}
	return err
}

// warmPoolPages is the frame budget of each warm table's private buffer
// pool: deliberately tiny, so warm scans genuinely fault from disk instead
// of being RAM-cached through the back door (which would falsify both the
// warm I/O accounting and the tier-aware cost model).
const warmPoolPages = 8

// warmTable is one demoted cache table: its rows in a heap file over a
// private small buffer pool fronting a FilePager. One pager+pool per table
// means page ids never alias across tables and dropping a table is just
// closing its pager.
type warmTable struct {
	t     *Table
	pager *FilePager
	pool  *BufferPool
}

// ensureWarmDir lazily creates the DB's warm-tier spill directory.
func (db *DB) ensureWarmDir() (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.warmDir != "" {
		return db.warmDir, nil
	}
	dir, err := os.MkdirTemp("", "mqo-warm-")
	if err != nil {
		return "", fmt.Errorf("storage: warm dir: %w", err)
	}
	db.warmDir = dir
	return dir, nil
}

// WarmDir returns the warm tier's spill directory, creating it if needed.
func (db *DB) WarmDir() (string, error) { return db.ensureWarmDir() }

// DemoteCache moves a cache table from the RAM tier to the warm tier: its
// rows are copied into a disk-backed heap file, the RAM table is dropped,
// and the real on-disk byte count is returned. The caller (the cache
// manager, holding its lock) guarantees no concurrent demote or drop of
// the same name; concurrent readers of the RAM table are safe
// because the copy only reads it and the swap is atomic under db.mu.
func (db *DB) DemoteCache(name string) (int64, error) {
	db.mu.RLock()
	t, ok := db.caches[name]
	db.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("storage: demote of unknown cache table %q", name)
	}
	dir, err := db.ensureWarmDir()
	if err != nil {
		return 0, err
	}
	seq := db.warmSeq.Add(1)
	path := filepath.Join(dir, "w"+strconv.FormatInt(seq, 10)+"_"+sanitizeName(name)+".heap")
	fp, err := NewFilePager(path)
	if err != nil {
		return 0, err
	}
	pool := NewBufferPool(fp, warmPoolPages)
	wt := &warmTable{
		t:     &Table{Name: name, Schema: t.Schema, Heap: NewHeapFile(pool), Indexes: map[string]*BTree{}},
		pager: fp,
		pool:  pool,
	}
	copyErr := t.Heap.Scan(func(rid RID, r Row) error {
		_, insErr := wt.t.Heap.Insert(r)
		return insErr
	})
	if copyErr == nil {
		copyErr = pool.Flush()
	}
	if copyErr != nil {
		db.foldWarmIO(pool.Stats())
		fp.Close()
		return 0, copyErr
	}
	db.mu.Lock()
	delete(db.caches, name)
	db.warm[name] = wt
	db.mu.Unlock()
	return fp.Bytes(), nil
}

// PromoteWarm copies a warm table's rows back into a RAM-tier cache table
// and returns the RAM table's byte size. The warm table stays in place —
// in-flight plans may still be scanning it; the caller drops it via
// DropWarm once no reader can hold a reference.
func (db *DB) PromoteWarm(name string) (int64, error) {
	db.mu.RLock()
	wt, ok := db.warm[name]
	db.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("storage: promote of unknown warm table %q", name)
	}
	t := &Table{Name: name, Schema: wt.t.Schema, Heap: NewHeapFile(db.Pool), Indexes: map[string]*BTree{}}
	err := wt.t.Heap.Scan(func(rid RID, r Row) error {
		_, insErr := t.Heap.Insert(r)
		return insErr
	})
	if err != nil {
		return 0, err
	}
	db.mu.Lock()
	db.caches[name] = t
	db.mu.Unlock()
	return int64(t.Heap.NumPages()) * PageSize, nil
}

// Warm looks up a warm-tier cache table.
func (db *DB) Warm(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if wt, ok := db.warm[name]; ok {
		return wt.t, nil
	}
	return nil, fmt.Errorf("storage: unknown warm table %q", name)
}

// WarmBytes reports a warm table's on-disk footprint (zero for unknown
// names).
func (db *DB) WarmBytes(name string) int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if wt, ok := db.warm[name]; ok {
		return wt.pager.Bytes()
	}
	return 0
}

// DropWarm removes a warm table and deletes its backing file, folding its
// pool's I/O counters into the DB's running warm totals so WarmIO stays
// monotone across drops. Dropping an unknown name is a no-op.
func (db *DB) DropWarm(name string) {
	db.mu.Lock()
	wt, ok := db.warm[name]
	if ok {
		delete(db.warm, name)
	}
	db.mu.Unlock()
	if !ok {
		return
	}
	db.foldWarmIO(wt.pool.Stats())
	wt.pager.Close()
}

// NumWarm returns the number of live warm tables.
func (db *DB) NumWarm() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.warm)
}

// WarmNames returns the names of all live warm tables, unordered.
func (db *DB) WarmNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.warm))
	for n := range db.warm {
		names = append(names, n)
	}
	return names
}

// WarmUsedBytes is the warm tier's total on-disk footprint.
func (db *DB) WarmUsedBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var b int64
	for _, wt := range db.warm {
		b += wt.pager.Bytes()
	}
	return b
}

// WarmIO snapshots the warm tier's cumulative I/O: the running totals of
// every dropped warm table plus the live pools' counters.
func (db *DB) WarmIO() IOStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := IOStats{
		Reads:  db.warmReads.Load(),
		Writes: db.warmWrites.Load(),
		Hits:   db.warmHits.Load(),
	}
	for _, wt := range db.warm {
		ps := wt.pool.Stats()
		s.Reads += ps.Reads
		s.Writes += ps.Writes
		s.Hits += ps.Hits
	}
	return s
}

func (db *DB) foldWarmIO(s IOStats) {
	db.warmReads.Add(s.Reads)
	db.warmWrites.Add(s.Writes)
	db.warmHits.Add(s.Hits)
}

// CloseWarm drops every warm table and removes the spill directory. The
// cache manager calls it from Close; afterwards the DB can still demote
// again (a fresh directory is created lazily).
func (db *DB) CloseWarm() error {
	db.mu.Lock()
	warm := db.warm
	db.warm = map[string]*warmTable{}
	dir := db.warmDir
	db.warmDir = ""
	db.mu.Unlock()
	var first error
	for _, wt := range warm {
		db.foldWarmIO(wt.pool.Stats())
		if err := wt.pager.Close(); err != nil && first == nil {
			first = err
		}
	}
	if dir != "" {
		if err := os.Remove(dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sanitizeName maps a table name to a filesystem-safe fragment.
func sanitizeName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
