package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mqo/internal/algebra"
	"mqo/internal/cost"
)

// Table is a stored relation: a heap file, its schema (column order of
// stored rows), and secondary B+-tree indices keyed by column name.
// Indexes is guarded by idxMu because indices are built lazily: two
// concurrent runs scanning the same base table may both ask for the same
// index, and exactly one build must win (use DB.EnsureIndex).
type Table struct {
	Name    string
	Schema  algebra.Schema
	Heap    *HeapFile
	Indexes map[string]*BTree

	idxMu sync.Mutex
}

// Index returns the table's index on column, if one has been built.
func (t *Table) Index(column string) (*BTree, bool) {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	bt, ok := t.Indexes[column]
	return bt, ok
}

// DB is a set of stored tables over one buffer pool, plus a cache namespace
// of spooled result tables that survive across runs (the transient
// materialized-view store behind the result cache). A plan execution's
// materialized intermediates are not the DB's: they belong to the run
// (BeginRun).
//
// The whole DB is safe for concurrent use. Catalog operations (CreateTable,
// Table and the Cache* family) share one RWMutex; page access goes through
// the buffer pool. Independent runs proceed concurrently, each with its own
// temp tables. Correctness rests on table ownership (see the package
// comment): base tables are read-only after load, each run's temps are
// private to it, and cache tables are written by exactly one run before
// becoming visible to others.
type DB struct {
	Pool *BufferPool

	mu      sync.RWMutex // guards tables, caches, warm and warmDir
	tables  map[string]*Table
	caches  map[string]*Table
	warm    map[string]*warmTable // warm-tier (disk-backed) cache tables
	warmDir string                // lazily created spill directory

	temps   atomic.Int64 // live temp tables of runs not yet ended
	warmSeq atomic.Int64 // distinct spill file per demotion

	// Running warm-tier I/O totals of dropped warm tables; WarmIO folds
	// the live pools' counters on top.
	warmReads  atomic.Int64
	warmWrites atomic.Int64
	warmHits   atomic.Int64
}

// NewDB creates a database with the given buffer-pool capacity in pages.
func NewDB(poolPages int) *DB {
	return &DB{
		Pool:   NewBufferPool(NewPager(), poolPages),
		tables: map[string]*Table{},
		caches: map[string]*Table{},
		warm:   map[string]*warmTable{},
	}
}

// RunTemps is one plan execution's temp tables: the materialized
// intermediates of its plan, private to it, so concurrent runs on the same DB
// can never read or drop each other's. A run's tasks run one at a time, so
// its tables need no lock.
type RunTemps struct {
	db     *DB
	tables map[string]*Table
}

// BeginRun opens a run with no temp tables. It never blocks: independent
// runs execute concurrently over the buffer pool. Callers must call End
// exactly once when done.
func (db *DB) BeginRun() *RunTemps {
	return &RunTemps{db: db}
}

// CreateTemp registers a temporary table of the run, replacing any previous
// temp of the run with the same name and freeing its pages. Nobody can still
// be reading a replaced temp: exec looks a temp up (Temp) before it creates
// one.
func (r *RunTemps) CreateTemp(name string, schema algebra.Schema) *Table {
	t := &Table{Name: name, Schema: schema, Heap: NewHeapFile(r.db.Pool), Indexes: map[string]*BTree{}}
	if old, ok := r.tables[name]; ok {
		r.db.free(old)
	} else {
		r.db.temps.Add(1)
	}
	if r.tables == nil {
		r.tables = map[string]*Table{}
	}
	r.tables[name] = t
	return t
}

// Temp looks up a temporary table of the run.
func (r *RunTemps) Temp(name string) (*Table, error) {
	if t, ok := r.tables[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("storage: unknown temp table %q", name)
}

// End drops the run's temporary tables and frees their pages. Safe to call
// more than once.
func (r *RunTemps) End() {
	if len(r.tables) == 0 {
		return
	}
	r.db.temps.Add(-int64(len(r.tables)))
	dropped := make([]*Table, 0, len(r.tables))
	for _, t := range r.tables {
		dropped = append(dropped, t)
	}
	clear(r.tables)
	r.db.free(dropped...)
}

// free hands the pages of dropped tables, heap and indices, back to the pool
// for reuse. Nobody may read a table once it is dropped: a temp belongs to
// its ended run, and the result cache drops only entries no plan has pinned.
func (db *DB) free(tables ...*Table) {
	var ids []PageID
	for _, t := range tables {
		ids = append(ids, t.Heap.pages...)
		t.idxMu.Lock()
		for _, bt := range t.Indexes {
			ids = append(ids, bt.pages...)
		}
		t.idxMu.Unlock()
	}
	if len(ids) > 0 {
		db.Pool.Free(ids)
	}
}

// CreateTable registers an empty base table. The schema's column order is
// the stored row layout.
func (db *DB) CreateTable(name string, schema algebra.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	t := &Table{Name: name, Schema: schema, Heap: NewHeapFile(db.Pool), Indexes: map[string]*BTree{}}
	db.tables[name] = t
	return t, nil
}

// Table looks up a base table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("storage: unknown table %q", name)
}

// replaceCache registers t under name in the cache namespace and frees the
// pages of the table it replaces, if any. Nobody can still be reading a
// replaced table: exec looks a cache name up (Cache) before it creates one,
// and DemoteCache deletes a RAM cache name before PromoteWarm adds it again.
func (db *DB) replaceCache(name string, t *Table) {
	db.mu.Lock()
	old, ok := db.caches[name]
	db.caches[name] = t
	db.mu.Unlock()
	if ok {
		db.free(old)
	}
}

// CreateCache registers a spooled result table in the cache namespace,
// replacing any previous cache table with the same name and freeing its
// pages. Unlike temps, cache tables survive RunTemps.End: they are the
// row-backed store behind the cross-batch result cache, and are dropped only
// by DropCache (cache eviction) or DropCaches.
func (db *DB) CreateCache(name string, schema algebra.Schema) *Table {
	t := &Table{Name: name, Schema: schema, Heap: NewHeapFile(db.Pool), Indexes: map[string]*BTree{}}
	db.replaceCache(name, t)
	return t
}

// Cache looks up a spooled result table.
func (db *DB) Cache(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.caches[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("storage: unknown cache table %q", name)
}

// DropCache removes a spooled result table from the cache namespace and
// frees its pages. Dropping an unknown name is a no-op.
func (db *DB) DropCache(name string) {
	db.mu.Lock()
	t, ok := db.caches[name]
	delete(db.caches, name)
	db.mu.Unlock()
	if ok {
		db.free(t)
	}
}

// DropCaches discards the whole cache namespace and frees its pages.
func (db *DB) DropCaches() {
	db.mu.Lock()
	caches := db.caches
	db.caches = map[string]*Table{}
	db.mu.Unlock()
	for _, t := range caches {
		db.free(t)
	}
}

// CacheBytes reports the real stored size of a cache table: heap pages
// times the page size. It is the byte accounting the result cache charges
// against its budget (replacing optimizer estimates). Unknown names report
// zero.
func (db *DB) CacheBytes(name string) int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.caches[name]; ok {
		return int64(t.Heap.NumPages()) * PageSize
	}
	return 0
}

// NumCaches returns the number of live cache tables.
func (db *DB) NumCaches() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.caches)
}

// CacheNames returns the names of all live cache tables, unordered.
func (db *DB) CacheNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.caches))
	for n := range db.caches {
		names = append(names, n)
	}
	return names
}

// NumTemps returns the number of live temporary tables of all runs not yet
// ended.
func (db *DB) NumTemps() int { return int(db.temps.Load()) }

// EnsureIndex returns t's index on column, building it first if absent.
// The build runs under the table's index lock, so concurrent callers get
// the same tree and the lazily built index is published exactly once.
func (db *DB) EnsureIndex(t *Table, column string) (*BTree, error) {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if bt, ok := t.Indexes[column]; ok {
		return bt, nil
	}
	idx := t.Schema.IndexOf(algebra.Col(t.Name, column))
	if idx < 0 {
		// Temp tables carry qualified columns from arbitrary relations:
		// fall back to matching the bare column name.
		for i, ci := range t.Schema {
			if ci.Col.Name == column {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("storage: column %q not in table %q", column, t.Name)
	}
	bt, err := NewBTree(db.Pool)
	if err != nil {
		return nil, err
	}
	err = t.Heap.ScanCols([]int{idx}, func(rid RID, r Row) error {
		return bt.Insert(r[0], rid)
	})
	if err != nil {
		return nil, err
	}
	t.Indexes[column] = bt
	return bt, nil
}

// SimulatedTime converts the pool's I/O counters into estimated seconds
// under the paper's cost model, the measurement reported by the Figure 7
// substitute experiment.
func (db *DB) SimulatedTime(m cost.Model) float64 {
	s := db.Pool.Stats()
	return float64(s.Reads)*m.ReadS + float64(s.Writes)*m.WriteS +
		float64(s.Reads+s.Writes)*m.CPUS
}
