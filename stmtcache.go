package mqo

import (
	"strings"
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
type stmtCache struct {
	mu     sync.Mutex
	byText map[string]*stmtEntry
	// fps is the fingerprint of every tree an entry holds, by pointer: it goes
	// with the entry.
	fps   map[*Query]string
	clock uint64 // the last use stamp handed out
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

// treesKey renders each query's tree as written, in batch order: equal trees,
// equal key. A tree the cache holds is not rendered again. The key does not
// see through equivalences the way the DAG's canonical fingerprints do. It
// keys the session memo's entries.
func (c *stmtCache) treesKey(queries []*Query) string {
	var window [8]string // up to a default window's worth stays off the heap
	var fps []string
	if len(queries) <= len(window) {
		fps = window[:len(queries)]
	} else {
		fps = make([]string, len(queries))
	}
	c.mu.Lock()
	for i, q := range queries {
		fps[i] = c.fps[q]
	}
	c.mu.Unlock()
	for i, q := range queries {
		if fps[i] == "" {
			fps[i] = q.Fingerprint()
		}
	}
	return strings.Join(fps, ";") // one query's is its fingerprint, uncopied
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
