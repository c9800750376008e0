package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"mqo/internal/algebra"
)

// BTree is a page-backed B+-tree mapping single-column keys to RIDs.
// Duplicate keys are allowed. Search and insert work on the encoded page
// inside the pool's accessors; only a node that overflows is decoded, split
// and encoded again. The buffer pool accounts the page I/O. A tree has one
// writer at a time (DB.EnsureIndex builds under the table's index lock).
type BTree struct {
	pool   *BufferPool
	root   PageID
	height int
	pages  []PageID // every page the tree allocated, for DB to free when its table drops
}

// NewBTree creates an empty tree on the pool.
func NewBTree(pool *BufferPool) (*BTree, error) {
	t := &BTree{pool: pool, height: 1}
	pid, err := t.allocate(func(data []byte) {
		encodeNode(data, &btNode{leaf: true, next: InvalidPage})
	})
	if err != nil {
		return nil, err
	}
	t.root = pid
	return t, nil
}

// allocate is AllocateWith for a page of the tree.
func (t *BTree) allocate(init func(data []byte)) (PageID, error) {
	pid, err := t.pool.AllocateWith(init)
	if err == nil {
		t.pages = append(t.pages, pid)
	}
	return pid, err
}

// Height returns the tree height (1 = a single leaf).
func (t *BTree) Height() int { return t.height }

// node page layout:
//
//	[0]    leaf flag
//	[1:3]  count (u16)
//	[3:7]  next leaf / child0 (i32)
//	then count entries: encoded key, then RID (leaf: page i32 + slot u16) or
//	child PageID (internal: i32).
//
// Nodes only grow and a split rewrites both halves whole, so the bytes past
// the last entry are always zero.
const (
	nodeHdr   = 7
	ridSize   = 6
	childSize = 4
	// The smallest entry is an empty string key and a child id.
	maxNodeEntries = (PageSize - nodeHdr) / (3 + childSize)
)

func nodeIsLeaf(p []byte) bool { return p[0] == 1 }
func nodeCount(p []byte) int   { return int(binary.LittleEndian.Uint16(p[1:3])) }

// nodeFirst is a leaf's right sibling or an internal node's leftmost child.
func nodeFirst(p []byte) PageID { return getPage(p[3:]) }

func getPage(p []byte) PageID     { return PageID(int32(binary.LittleEndian.Uint32(p))) }
func putPage(p []byte, id PageID) { binary.LittleEndian.PutUint32(p, uint32(id)) }

func getRID(p []byte) RID {
	return RID{Page: getPage(p), Slot: binary.LittleEndian.Uint16(p[4:])}
}

func putRID(p []byte, rid RID) {
	putPage(p, rid.Page)
	binary.LittleEndian.PutUint16(p[4:], rid.Slot)
}

// btNode is the decoded form of one tree page: what a split works on.
type btNode struct {
	leaf     bool
	keys     []algebra.Value
	rids     []RID    // leaf payloads, parallel to keys
	children []PageID // internal children, len(keys)+1
	next     PageID   // leaf sibling chain
}

func encodeNode(p []byte, n *btNode) {
	clear(p)
	if n.leaf {
		p[0] = 1
		putPage(p[3:], n.next)
	} else {
		putPage(p[3:], n.children[0])
	}
	binary.LittleEndian.PutUint16(p[1:3], uint16(len(n.keys)))
	off := nodeHdr
	for i, k := range n.keys {
		off += len(appendValue(p[off:off], k))
		if n.leaf {
			putRID(p[off:], n.rids[i])
			off += ridSize
		} else {
			putPage(p[off:], n.children[i+1])
			off += childSize
		}
	}
}

func decodeNode(p []byte) (*btNode, error) {
	n := &btNode{leaf: nodeIsLeaf(p)}
	if n.leaf {
		n.next = nodeFirst(p)
	} else {
		n.children = append(n.children, nodeFirst(p))
	}
	off := nodeHdr
	for i := nodeCount(p); i > 0; i-- {
		var key algebra.Value
		used, err := decodeValue(&key, p[off:])
		if err != nil {
			return nil, err
		}
		off += used
		n.keys = append(n.keys, key)
		if n.leaf {
			n.rids = append(n.rids, getRID(p[off:]))
			off += ridSize
		} else {
			n.children = append(n.children, getPage(p[off:]))
			off += childSize
		}
	}
	return n, nil
}

// compareEncoded orders the serialized value at the head of entry against
// key exactly as algebra.Compare orders the decoded value against it, without
// building the Value.
func compareEncoded(entry []byte, key algebra.Value) (int, error) {
	size, err := valueSize(entry)
	if err != nil {
		return 0, err
	}
	var f float64
	switch algebra.Type(entry[0]) {
	case algebra.TString:
		if key.IsNumeric() {
			return 1, nil
		}
		// The conversion only feeds the comparison: it does not allocate.
		if s := entry[3:size]; string(s) < key.S {
			return -1, nil
		} else if string(s) > key.S {
			return 1, nil
		}
		return 0, nil
	case algebra.TFloat:
		f = bitsFloat(binary.LittleEndian.Uint64(entry[1:]))
	default: // TInt, TDate
		f = float64(int64(binary.LittleEndian.Uint64(entry[1:])))
	}
	if !key.IsNumeric() {
		return -1, nil
	}
	return algebra.CompareFloat(f, key.AsFloat()), nil
}

// nodeIndex is where each entry of one encoded node starts. Keys vary in
// length, so a node is walked once, by encoded lengths alone, and then
// bisected.
type nodeIndex struct {
	n   int
	off [maxNodeEntries + 1]uint16 // entry i is p[off[i]:off[i+1]]; off[n] ends the used bytes
}

// scan indexes the node p, rejecting one whose entries are damaged or run
// past the page.
func (ix *nodeIndex) scan(p []byte) error {
	tail := childSize
	if nodeIsLeaf(p) {
		tail = ridSize
	}
	if ix.n = nodeCount(p); ix.n > maxNodeEntries {
		return fmt.Errorf("storage: b-tree node claims %d entries", ix.n)
	}
	off := nodeHdr
	for i := 0; i < ix.n; i++ {
		ix.off[i] = uint16(off)
		size, err := valueSize(p[off:])
		if err != nil {
			return err
		}
		if off += size + tail; off > PageSize {
			return fmt.Errorf("storage: b-tree entry %d runs past its page", i)
		}
	}
	ix.off[ix.n] = uint16(off)
	return nil
}

// bound returns the first entry with a key >= key, or with after the first
// with a key > key.
func (ix *nodeIndex) bound(p []byte, key algebra.Value, after bool) (int, error) {
	lo, hi := 0, ix.n
	for lo < hi {
		mid := (lo + hi) / 2
		c, err := compareEncoded(p[ix.off[mid]:], key)
		if err != nil {
			return 0, err
		}
		if c < 0 || (after && c == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// end is the length of the node's used bytes.
func (ix *nodeIndex) end() int { return int(ix.off[ix.n]) }

// child returns an internal node's i-th child: child 0 sits in the header,
// child i behind the key of entry i-1.
func (ix *nodeIndex) child(p []byte, i int) PageID {
	if i == 0 {
		return nodeFirst(p)
	}
	return getPage(p[ix.off[i]-childSize:])
}

// putEntry inserts key and size-len(key) bytes of payload, left for the
// caller to fill and returned, at offset at of a node whose used bytes end at
// end: the tail moves up and the count goes up by one.
func putEntry(p []byte, at, end, size int, key algebra.Value) []byte {
	copy(p[at+size:end+size], p[at:end])
	binary.LittleEndian.PutUint16(p[1:3], uint16(nodeCount(p)+1))
	return p[at+len(appendValue(p[at:at], key)) : at+size]
}

// Insert adds (key, rid) to the tree.
func (t *BTree) Insert(key algebra.Value, rid RID) error {
	promoted, right, split, err := t.insert(t.root, t.height, key, rid)
	if err != nil {
		return err
	}
	if !split {
		return nil
	}
	// Grow a new root.
	newRoot, err := t.allocate(func(data []byte) {
		encodeNode(data, &btNode{
			leaf:     false,
			keys:     []algebra.Value{promoted},
			children: []PageID{t.root, right},
		})
	})
	if err != nil {
		return err
	}
	t.root = newRoot
	t.height++
	return nil
}

// errNodeFull is how an in-place insert leaves its Update without marking
// the untouched page dirty.
var errNodeFull = errors.New("storage: b-tree node full")

// insert adds (key, rid) under the node pid, level-1 levels above the
// leaves. The pool is reached once per node on the way down, the leaf's
// access being its write too; on the way up, a node that takes an entry is
// written back, after the allocation of its right sibling if it splits. Fault
// counts and simulated times rest on that sequence, which the tests hold to
// a reference insert.
func (t *BTree) insert(pid PageID, level int, key algebra.Value, rid RID) (algebra.Value, PageID, bool, error) {
	none := func(err error) (algebra.Value, PageID, bool, error) {
		return algebra.Value{}, InvalidPage, false, err
	}
	if level == 1 {
		var full *btNode
		var i int
		err := t.pool.Update(pid, func(p []byte) (err error) {
			var ix nodeIndex
			if err = ix.scan(p); err != nil {
				return err
			}
			if i, err = ix.bound(p, key, false); err != nil {
				return err
			}
			size := encodedLen(key) + ridSize
			if ix.end()+size > PageSize {
				if full, err = decodeNode(p); err != nil {
					return err
				}
				return errNodeFull
			}
			putRID(putEntry(p, int(ix.off[i]), ix.end(), size, key), rid)
			return nil
		})
		if err != errNodeFull {
			return none(err)
		}
		full.keys = slices.Insert(full.keys, i, key)
		full.rids = slices.Insert(full.rids, i, rid)
		return t.split(pid, full)
	}

	// Equal keys go right, keeping leaf chains dense. The node's used bytes
	// are copied out so that a split on the way up has them without reading
	// the page again: a second access could fault, or reorder the LRU.
	var node [PageSize]byte
	var ci, at, end int
	var child PageID
	err := t.pool.View(pid, func(p []byte) (err error) {
		var ix nodeIndex
		if err = ix.scan(p); err != nil {
			return err
		}
		if ci, err = ix.bound(p, key, true); err != nil {
			return err
		}
		child, at, end = ix.child(p, ci), int(ix.off[ci]), copy(node[:], p[:ix.end()])
		return nil
	})
	if err != nil {
		return none(err)
	}
	promoted, right, split, err := t.insert(child, level-1, key, rid)
	if err != nil || !split {
		return none(err)
	}
	// The tree's one writer is here, so the node is as the descent left it.
	if size := encodedLen(promoted) + childSize; end+size <= PageSize {
		return none(t.pool.Update(pid, func(p []byte) error {
			putPage(putEntry(p, at, end, size, promoted), right)
			return nil
		}))
	}
	full, err := decodeNode(node[:])
	if err != nil {
		return none(err)
	}
	full.keys = slices.Insert(full.keys, ci, promoted)
	full.children = slices.Insert(full.children, ci+1, right)
	return t.split(pid, full)
}

// split halves the overflowing node n of page pid: the upper half goes to a
// new right sibling, the lower half back to pid, and the separator up.
func (t *BTree) split(pid PageID, n *btNode) (algebra.Value, PageID, bool, error) {
	mid := len(n.keys) / 2
	var rightNode *btNode
	var promoted algebra.Value
	if n.leaf {
		rightNode = &btNode{leaf: true, keys: n.keys[mid:], rids: n.rids[mid:], next: n.next}
		promoted = rightNode.keys[0]
		n.keys = n.keys[:mid]
		n.rids = n.rids[:mid]
	} else {
		promoted = n.keys[mid]
		rightNode = &btNode{keys: n.keys[mid+1:], children: n.children[mid+1:]}
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	rightPid, err := t.allocate(func(data []byte) {
		encodeNode(data, rightNode)
	})
	if err != nil {
		return algebra.Value{}, InvalidPage, false, err
	}
	if n.leaf {
		n.next = rightPid
	}
	err = t.pool.Update(pid, func(data []byte) error {
		encodeNode(data, n)
		return nil
	})
	if err != nil {
		return algebra.Value{}, InvalidPage, false, err
	}
	return promoted, rightPid, true, nil
}

// NewIter returns an iterator over the tree's leaf entries, positioned at
// the end until Seek or SeekFirst places it. One iterator serves any number
// of probes: re-positioning reuses its leaf buffer.
func (t *BTree) NewIter() *BTreeIter { return &BTreeIter{tree: t, next: InvalidPage} }

// Seek returns a new iterator positioned at the first entry with key >= from.
func (t *BTree) Seek(from algebra.Value) (*BTreeIter, error) {
	it := t.NewIter()
	return it, it.Seek(from)
}

// SeekFirst returns a new iterator positioned at the smallest key.
func (t *BTree) SeekFirst() (*BTreeIter, error) {
	it := t.NewIter()
	return it, it.SeekFirst()
}

// BTreeIter iterates leaf entries in ascending key order over its own copy
// of the current leaf, taken under the pool latch.
type BTreeIter struct {
	tree *BTree
	leaf [PageSize]byte
	off  int    // of the next entry in leaf
	left int    // entries of leaf still to return
	next PageID // leaf's right sibling
}

// Seek re-positions the iterator at the first entry with key >= from.
func (it *BTreeIter) Seek(from algebra.Value) error { return it.descend(&from) }

// SeekFirst re-positions the iterator at the smallest key.
func (it *BTreeIter) SeekFirst() error { return it.descend(nil) }

// descend walks from the root to the leaf that holds the first entry with
// key >= *from (the leftmost leaf for nil), one pool access per node. A
// separator equal to from may have equal entries on both sides, so the walk
// goes left of it.
func (it *BTreeIter) descend(from *algebra.Value) error {
	it.left, it.next = 0, InvalidPage
	pid := it.tree.root
	for leaf := false; !leaf; {
		err := it.tree.pool.View(pid, func(p []byte) (err error) {
			var ix nodeIndex
			if err = ix.scan(p); err != nil {
				return err
			}
			i := 0
			if from != nil {
				if i, err = ix.bound(p, *from, false); err != nil {
					return err
				}
			}
			if leaf = nodeIsLeaf(p); leaf {
				it.load(p[:ix.end()])
				it.off, it.left = int(ix.off[i]), ix.n-i
			} else {
				pid = ix.child(p, i)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// load makes p, the used bytes of a leaf, the iterator's current leaf.
func (it *BTreeIter) load(p []byte) {
	copy(it.leaf[:], p)
	it.off, it.left, it.next = nodeHdr, nodeCount(p), nodeFirst(p)
}

// Next returns the next (key, rid) pair, or ok=false at the end.
func (it *BTreeIter) Next() (algebra.Value, RID, bool, error) {
	for it.left == 0 {
		if it.next == InvalidPage {
			return algebra.Value{}, RID{}, false, nil
		}
		err := it.tree.pool.View(it.next, func(p []byte) error {
			it.load(p)
			return nil
		})
		if err != nil {
			return algebra.Value{}, RID{}, false, err
		}
	}
	var k algebra.Value
	used, err := decodeValue(&k, it.leaf[it.off:])
	if err == nil && it.off+used+ridSize > PageSize {
		err = fmt.Errorf("storage: b-tree entry runs past its page")
	}
	if err != nil {
		return algebra.Value{}, RID{}, false, err
	}
	rid := getRID(it.leaf[it.off+used:])
	it.off += used + ridSize
	it.left--
	return k, rid, true, nil
}
