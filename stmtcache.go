package mqo

import (
	"sync"

	"mqo/internal/obs"
	"mqo/internal/server"
)

// stmtCacheCap bounds how many SQL texts a session keeps compiled. An entry is
// a text, its lowered trees and their fingerprints: an SSB query's retains some
// 3 KB (live heap after a collection), so a full cache is under 1 MB.
const stmtCacheCap = 256

var (
	stmtHit  = obs.Default().Counter("mqo_sql_statement_total", "SQL texts compiled for Submit, Run and OptimizeSQL, by whether the session already held the text's lowered queries.", obs.L("outcome", "hit"))
	stmtMiss = obs.Default().Counter("mqo_sql_statement_total", "SQL texts compiled for Submit, Run and OptimizeSQL, by whether the session already held the text's lowered queries.", obs.L("outcome", "miss"))
)

// stmtCache is a session's cache of compiled SQL texts: per text, the queries
// it lowers to and each query's fingerprint (Query.Fingerprint), so a repeated
// text is neither parsed, nor lowered, nor rendered again. Its trees never
// leave the session — ParseSQL hands callers trees of their own — and nothing
// writes to a tree once it is lowered, so every call shares them. A hit or a
// put stamps the text with the cache's clock; an overflow drops the smallest
// stamp. Like the session memo, the cache assumes that the tables of the
// session's catalog do not change under it.
//
// The cache also renders the session memo's keys (key, appendTreesKeyLocked): a
// tree it holds by its kept fingerprint, any other tree — a caller's — in
// full on every call, into a key buffer the session reuses. A caller's tree
// is never keyed by pointer: its fields are exported, and a tree changed in
// place must not find the DAG of what it was.
type stmtCache struct {
	mu     sync.Mutex
	byText map[string]*stmtEntry
	// fps is the fingerprint of every tree an entry holds, by pointer: it goes
	// with the entry.
	fps   map[*Query]string
	clock uint64 // the last use stamp handed out
	// spare holds key buffers (memoKey) no call is using.
	spare []*memoKey
}

type stmtEntry struct {
	queries []*Query
	used    uint64
}

// get returns the queries text compiled to, if the cache holds them.
func (c *stmtCache) get(text string) ([]*Query, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.byText[text]
	if !ok {
		return nil, false
	}
	c.clock++
	ent.used = c.clock
	return ent.queries, true
}

// put caches queries, with their fingerprints fps, as what text compiles to,
// and returns the queries the cache holds for text: a concurrent miss on the
// same text may have put its own first, and those are kept.
func (c *stmtCache) put(text string, queries []*Query, fps []string) []*Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byText == nil {
		c.byText, c.fps = map[string]*stmtEntry{}, map[*Query]string{}
	}
	if ent, ok := c.byText[text]; ok {
		return ent.queries
	}
	c.clock++
	c.byText[text] = &stmtEntry{queries: queries, used: c.clock}
	for i, q := range queries {
		c.fps[q] = fps[i]
	}
	if len(c.byText) > stmtCacheCap {
		var oldText string
		var oldest *stmtEntry
		for t, ent := range c.byText {
			if oldest == nil || ent.used < oldest.used {
				oldText, oldest = t, ent
			}
		}
		delete(c.byText, oldText)
		for _, q := range oldest.queries {
			delete(c.fps, q)
		}
	}
	return queries
}

// appendTreesKeyLocked appends the key of a batch to dst: each query's tree
// as written (Query.Fingerprint), in batch order, joined by ";". Equal
// trees, equal key. A tree the cache holds is not rendered again, and a
// caller's is rendered every time, with c.mu let go meanwhile: its fields
// are the caller's to change, so nothing about it is kept. The key does not
// see through equivalences the way the DAG's canonical fingerprints do. It
// keys the session memo's entries.
func (c *stmtCache) appendTreesKeyLocked(dst []byte, queries []*Query) []byte {
	for i, q := range queries {
		if i > 0 {
			dst = append(dst, ';')
		}
		if fp, ok := c.fps[q]; ok {
			dst = append(dst, fp...)
			continue
		}
		c.mu.Unlock()
		dst = q.AppendFingerprint(dst)
		c.mu.Lock()
	}
	return dst
}

// memoKey is a batch's key rendered into a buffer the session reuses: the
// memo looks it up without a copy and copies it only into an entry it
// inserts.
type memoKey struct {
	b []byte
	c *stmtCache
}

// spareKeys bounds the key buffers a session keeps for reuse: one per call
// rendering a key at the same time, up to a serving session's workers and
// front doors.
const spareKeys = 8

// key renders the key of queries into a spare buffer of the session, or a
// new one, which the caller hands back with release once no memo call reads
// the key any more. Unlike a sync.Pool's, the spares survive collections,
// so a key renders with no allocation once its buffer has grown.
func (c *stmtCache) key(queries []*Query) *memoKey {
	c.mu.Lock()
	var k *memoKey
	if n := len(c.spare); n > 0 {
		k, c.spare = c.spare[n-1], c.spare[:n-1]
	} else {
		k = &memoKey{c: c}
	}
	k.b = c.appendTreesKeyLocked(k.b[:0], queries)
	c.mu.Unlock() // not deferred: a render that panics has let go of it
	return k
}

// release hands the buffer back to the session.
func (k *memoKey) release() {
	c := k.c
	c.mu.Lock()
	if len(c.spare) < spareKeys {
		c.spare = append(c.spare, k)
	}
	c.mu.Unlock()
}

// compile returns the queries sqlText lowers to, shared with every other call
// that compiles the same text, with the time parsing and lowering took: none
// when the session held the text already. A text that does not parse or lower
// is not kept.
func (o *Optimizer) compile(sqlText string) ([]*Query, server.PhaseTimes, error) {
	if queries, ok := o.stmts.get(sqlText); ok {
		stmtHit.Inc()
		return queries, server.PhaseTimes{}, nil
	}
	stmtMiss.Inc()
	queries, pt, err := o.parseSQLTimed(sqlText)
	if err != nil {
		return nil, pt, err
	}
	fps := make([]string, len(queries))
	for i, q := range queries {
		fps[i] = q.Fingerprint()
	}
	return o.stmts.put(sqlText, queries, fps), pt, nil
}
