package storage

import (
	"encoding/binary"

	"mqo/internal/algebra"
)

// BTree is a page-backed B+-tree mapping single-column keys to RIDs.
// Duplicate keys are allowed. Nodes are decoded/encoded whole per access;
// the buffer pool accounts the page I/O.
type BTree struct {
	pool   *BufferPool
	root   PageID
	height int
}

// NewBTree creates an empty tree on the pool.
func NewBTree(pool *BufferPool) (*BTree, error) {
	pid, err := pool.AllocateWith(func(data []byte) {
		encodeNode(data, &btNode{leaf: true, next: InvalidPage})
	})
	if err != nil {
		return nil, err
	}
	return &BTree{pool: pool, root: pid, height: 1}, nil
}

// Height returns the tree height (1 = a single leaf).
func (t *BTree) Height() int { return t.height }

// btNode is the decoded form of one tree page.
type btNode struct {
	leaf     bool
	keys     []algebra.Value
	rids     []RID    // leaf payloads, parallel to keys
	children []PageID // internal children, len(keys)+1
	next     PageID   // leaf sibling chain
}

// node page layout:
//
//	[0]    leaf flag
//	[1:3]  count (u16)
//	[3:7]  next leaf / child0 (i32)
//	then count entries: encoded key, then RID (leaf: page i32 + slot u16) or
//	child PageID (internal: i32).
func encodeNode(p []byte, n *btNode) {
	for i := range p {
		p[i] = 0
	}
	if n.leaf {
		p[0] = 1
	}
	binary.LittleEndian.PutUint16(p[1:3], uint16(len(n.keys)))
	if n.leaf {
		binary.LittleEndian.PutUint32(p[3:7], uint32(n.next))
	} else {
		binary.LittleEndian.PutUint32(p[3:7], uint32(n.children[0]))
	}
	off := 7
	for i, k := range n.keys {
		kb := encodeRow(Row{k})
		copy(p[off:], kb)
		off += len(kb)
		if n.leaf {
			binary.LittleEndian.PutUint32(p[off:], uint32(n.rids[i].Page))
			binary.LittleEndian.PutUint16(p[off+4:], n.rids[i].Slot)
			off += 6
		} else {
			binary.LittleEndian.PutUint32(p[off:], uint32(n.children[i+1]))
			off += 4
		}
	}
}

func decodeNode(p []byte) (*btNode, error) {
	n := &btNode{leaf: p[0] == 1}
	count := int(binary.LittleEndian.Uint16(p[1:3]))
	first := PageID(int32(binary.LittleEndian.Uint32(p[3:7])))
	if n.leaf {
		n.next = first
	} else {
		n.children = append(n.children, first)
	}
	off := 7
	for i := 0; i < count; i++ {
		var key algebra.Value
		used, err := decodeValue(&key, p[off:])
		if err != nil {
			return nil, err
		}
		off += used
		n.keys = append(n.keys, key)
		if n.leaf {
			pid := PageID(int32(binary.LittleEndian.Uint32(p[off:])))
			slot := binary.LittleEndian.Uint16(p[off+4:])
			n.rids = append(n.rids, RID{Page: pid, Slot: slot})
			off += 6
		} else {
			n.children = append(n.children, PageID(int32(binary.LittleEndian.Uint32(p[off:]))))
			off += 4
		}
	}
	return n, nil
}

// nodeSize returns the encoded size of the node.
func nodeSize(n *btNode) int {
	size := 7
	for _, k := range n.keys {
		size += len(encodeRow(Row{k}))
		if n.leaf {
			size += 6
		} else {
			size += 4
		}
	}
	return size
}

func (t *BTree) load(pid PageID) (*btNode, error) {
	data, err := t.pool.Get(pid)
	if err != nil {
		return nil, err
	}
	return decodeNode(data)
}

func (t *BTree) store(pid PageID, n *btNode) error {
	return t.pool.Update(pid, func(data []byte) error {
		encodeNode(data, n)
		return nil
	})
}

// Insert adds (key, rid) to the tree.
func (t *BTree) Insert(key algebra.Value, rid RID) error {
	promoted, right, split, err := t.insert(t.root, key, rid)
	if err != nil {
		return err
	}
	if !split {
		return nil
	}
	// Grow a new root.
	newRoot, err := t.pool.AllocateWith(func(data []byte) {
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

func (t *BTree) insert(pid PageID, key algebra.Value, rid RID) (algebra.Value, PageID, bool, error) {
	n, err := t.load(pid)
	if err != nil {
		return algebra.Value{}, InvalidPage, false, err
	}
	if n.leaf {
		i := lowerBound(n.keys, key)
		n.keys = insertValue(n.keys, i, key)
		n.rids = insertRID(n.rids, i, rid)
		return t.storeOrSplit(pid, n)
	}
	ci := upperBound(n.keys, key)
	promoted, right, split, err := t.insert(n.children[ci], key, rid)
	if err != nil || !split {
		return algebra.Value{}, InvalidPage, false, err
	}
	n.keys = insertValue(n.keys, ci, promoted)
	n.children = insertPage(n.children, ci+1, right)
	return t.storeOrSplit(pid, n)
}

// storeOrSplit writes the node back, splitting it first when it overflows.
func (t *BTree) storeOrSplit(pid PageID, n *btNode) (algebra.Value, PageID, bool, error) {
	if nodeSize(n) <= PageSize {
		return algebra.Value{}, InvalidPage, false, t.store(pid, n)
	}
	mid := len(n.keys) / 2
	var rightNode *btNode
	var promoted algebra.Value
	if n.leaf {
		rightNode = &btNode{leaf: true, keys: cloneVals(n.keys[mid:]), rids: cloneRIDs(n.rids[mid:]), next: n.next}
		promoted = rightNode.keys[0]
		n.keys = n.keys[:mid]
		n.rids = n.rids[:mid]
	} else {
		promoted = n.keys[mid]
		rightNode = &btNode{
			leaf:     false,
			keys:     cloneVals(n.keys[mid+1:]),
			children: clonePages(n.children[mid+1:]),
		}
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	rightPid, err := t.pool.AllocateWith(func(data []byte) {
		encodeNode(data, rightNode)
	})
	if err != nil {
		return algebra.Value{}, InvalidPage, false, err
	}
	if n.leaf {
		n.next = rightPid
	}
	if err := t.store(pid, n); err != nil {
		return algebra.Value{}, InvalidPage, false, err
	}
	return promoted, rightPid, true, nil
}

// Seek positions an iterator at the first entry with key >= from.
func (t *BTree) Seek(from algebra.Value) (*BTreeIter, error) {
	pid := t.root
	for {
		n, err := t.load(pid)
		if err != nil {
			return nil, err
		}
		if n.leaf {
			return &BTreeIter{tree: t, node: n, idx: lowerBound(n.keys, from)}, nil
		}
		pid = n.children[upperBoundStrict(n.keys, from)]
	}
}

// SeekFirst positions an iterator at the smallest key.
func (t *BTree) SeekFirst() (*BTreeIter, error) {
	pid := t.root
	for {
		n, err := t.load(pid)
		if err != nil {
			return nil, err
		}
		if n.leaf {
			return &BTreeIter{tree: t, node: n, idx: 0}, nil
		}
		pid = n.children[0]
	}
}

// BTreeIter iterates leaf entries in ascending key order.
type BTreeIter struct {
	tree *BTree
	node *btNode
	idx  int
}

// Next returns the next (key, rid) pair, or ok=false at the end.
func (it *BTreeIter) Next() (algebra.Value, RID, bool, error) {
	for it.idx >= len(it.node.keys) {
		if it.node.next == InvalidPage {
			return algebra.Value{}, RID{}, false, nil
		}
		n, err := it.tree.load(it.node.next)
		if err != nil {
			return algebra.Value{}, RID{}, false, err
		}
		it.node, it.idx = n, 0
	}
	k, r := it.node.keys[it.idx], it.node.rids[it.idx]
	it.idx++
	return k, r, true, nil
}

// lowerBound returns the first index with keys[i] >= key.
func lowerBound(keys []algebra.Value, key algebra.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if algebra.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the child index for descending during insert: the
// first index with keys[i] > key, so equal keys go right (keeping leaf
// chains dense).
func upperBound(keys []algebra.Value, key algebra.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if algebra.Compare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBoundStrict returns the child index for Seek: the first index with
// keys[i] > from would skip duplicates of from in the left subtree, so
// descend at the first index with keys[i] >= from... but separator keys
// equal to from may have equal entries on both sides; descending left of an
// equal separator is required for correct range starts.
func upperBoundStrict(keys []algebra.Value, key algebra.Value) int {
	return lowerBound(keys, key)
}

func insertValue(s []algebra.Value, i int, v algebra.Value) []algebra.Value {
	s = append(s, algebra.Value{})
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertRID(s []RID, i int, v RID) []RID {
	s = append(s, RID{})
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertPage(s []PageID, i int, v PageID) []PageID {
	s = append(s, InvalidPage)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func cloneVals(s []algebra.Value) []algebra.Value { return append([]algebra.Value(nil), s...) }
func cloneRIDs(s []RID) []RID                     { return append([]RID(nil), s...) }
func clonePages(s []PageID) []PageID              { return append([]PageID(nil), s...) }
