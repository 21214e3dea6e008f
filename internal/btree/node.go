// Package btree implements the B+tree used for tables and indexes, in
// the role BDB's btree access method (and SQLite's btree layer) play in
// the paper's stack. Trees live entirely in storage pages, so the Retro
// copy-on-write machinery snapshots them for free, and a tree opened
// over a retro.SnapshotReader pager reads historical state with the
// exact same code that reads the current state — the retrospection
// property the paper builds on.
//
// Layout. Every node is one 4 KiB page. Leaves hold (key, value) cells
// and are chained left-to-right (and back) for range scans. Interior
// nodes hold (routing key, child) cells where the routing key is a
// lower bound for the child's keys; bounds-only routing keys need no
// maintenance when the child's minimum changes. The root page id is
// stable for the life of the tree: splits grow the tree by moving the
// root's content down, collapses move an only-child's content back up.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"rql/internal/storage"
)

// Errors returned by the btree package.
var (
	ErrTooBig  = errors.New("btree: key/value too large for a page")
	ErrCorrupt = errors.New("btree: corrupt node page")
)

// Node page layout constants.
const (
	offType     = 0  // 1 byte: nodeLeaf or nodeInterior
	offNumCells = 1  // uint16
	offCellPtr0 = 13 // cell pointer array (uint16 each)
	offContent  = 3  // uint16: lowest byte offset used by cell content
	offNext     = 5  // uint32: leaf only: next leaf (0 = none)
	offPrev     = 9  // uint32: leaf only: previous leaf (0 = none)

	nodeLeaf     = 1
	nodeInterior = 2

	// MaxCellPayload bounds key+value size so at least two cells fit in
	// any page (plus headers); larger records must be kept out by the
	// caller (the SQL layer enforces a row-size limit).
	MaxCellPayload = (storage.PageSize - offCellPtr0 - 2*2 - 2*cellOverhead) / 2

	cellOverhead = 12 // conservative per-cell bound: child/lenghts varints
)

// node wraps a page with typed accessors. It holds either a read-only
// or a writable page; mutating methods must only be called on nodes
// obtained via pageMut.
type node struct {
	id   storage.PageID
	data *storage.PageData
}

func (n node) typ() byte       { return n.data[offType] }
func (n node) isLeaf() bool    { return n.data[offType] == nodeLeaf }
func (n node) numCells() int   { return int(binary.LittleEndian.Uint16(n.data[offNumCells:])) }
func (n node) contentPtr() int { return int(binary.LittleEndian.Uint16(n.data[offContent:])) }
func (n node) next() storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(n.data[offNext:]))
}
func (n node) prev() storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(n.data[offPrev:]))
}

func (n node) setType(t byte)    { n.data[offType] = t }
func (n node) setNumCells(c int) { binary.LittleEndian.PutUint16(n.data[offNumCells:], uint16(c)) }
func (n node) setContentPtr(p int) {
	binary.LittleEndian.PutUint16(n.data[offContent:], uint16(p))
}
func (n node) setNext(id storage.PageID) {
	binary.LittleEndian.PutUint32(n.data[offNext:], uint32(id))
}
func (n node) setPrev(id storage.PageID) {
	binary.LittleEndian.PutUint32(n.data[offPrev:], uint32(id))
}

func (n node) cellPtr(i int) int {
	return int(binary.LittleEndian.Uint16(n.data[offCellPtr0+2*i:]))
}
func (n node) setCellPtr(i, p int) {
	binary.LittleEndian.PutUint16(n.data[offCellPtr0+2*i:], uint16(p))
}

// initNode formats a page as an empty node of the given type.
func initNode(n node, typ byte) {
	n.setType(typ)
	n.setNumCells(0)
	n.setContentPtr(storage.PageSize)
	n.setNext(0)
	n.setPrev(0)
}

// leafCell decodes the cell at index i of a leaf node.
func (n node) leafCell(i int) (key, value []byte, err error) {
	p := n.cellPtr(i)
	if p < offCellPtr0 || p >= storage.PageSize {
		return nil, nil, fmt.Errorf("%w: bad cell pointer %d", ErrCorrupt, p)
	}
	buf := n.data[p:]
	klen, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, nil, ErrCorrupt
	}
	buf = buf[sz:]
	if uint64(len(buf)) < klen {
		return nil, nil, ErrCorrupt
	}
	key = buf[:klen]
	buf = buf[klen:]
	vlen, sz := binary.Uvarint(buf)
	if sz <= 0 || uint64(len(buf)-sz) < vlen {
		return nil, nil, ErrCorrupt
	}
	value = buf[sz : sz+int(vlen)]
	return key, value, nil
}

// interiorCell decodes the cell at index i of an interior node.
func (n node) interiorCell(i int) (key []byte, child storage.PageID, err error) {
	p := n.cellPtr(i)
	if p < offCellPtr0 || p+4 > storage.PageSize {
		return nil, 0, fmt.Errorf("%w: bad cell pointer %d", ErrCorrupt, p)
	}
	buf := n.data[p:]
	child = storage.PageID(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	klen, sz := binary.Uvarint(buf)
	if sz <= 0 || uint64(len(buf)-sz) < klen {
		return nil, 0, ErrCorrupt
	}
	key = buf[sz : sz+int(klen)]
	return key, child, nil
}

// cellKey returns the key of cell i regardless of node type.
func (n node) cellKey(i int) ([]byte, error) {
	if n.isLeaf() {
		k, _, err := n.leafCell(i)
		return k, err
	}
	k, _, err := n.interiorCell(i)
	return k, err
}

// rawCell returns the encoded bytes of cell i (for moves during splits).
func (n node) rawCell(i int) ([]byte, error) {
	p := n.cellPtr(i)
	if n.isLeaf() {
		k, v, err := n.leafCell(i)
		if err != nil {
			return nil, err
		}
		end := p + leafCellSize(k, v)
		return n.data[p:end], nil
	}
	k, _, err := n.interiorCell(i)
	if err != nil {
		return nil, err
	}
	end := p + interiorCellSize(k)
	return n.data[p:end], nil
}

func leafCellSize(key, value []byte) int {
	return uvarintLen(uint64(len(key))) + len(key) + uvarintLen(uint64(len(value))) + len(value)
}

func interiorCellSize(key []byte) int {
	return 4 + uvarintLen(uint64(len(key))) + len(key)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// freeSpace returns the contiguous free bytes between the pointer array
// and the content area.
func (n node) freeSpace() int {
	return n.contentPtr() - (offCellPtr0 + 2*n.numCells())
}

// usedContent sums the sizes of all live cells.
func (n node) usedContent() (int, error) {
	total := 0
	for i := 0; i < n.numCells(); i++ {
		raw, err := n.rawCell(i)
		if err != nil {
			return 0, err
		}
		total += len(raw)
	}
	return total, nil
}

// defragment rewrites all cells tightly against the end of the page.
// It reads the cells from one page-sized copy (on the stack), so it
// allocates nothing however many cells the page holds.
func (n node) defragment() error {
	var scratch storage.PageData
	scratch = *n.data
	src := node{id: n.id, data: &scratch}
	ptr := storage.PageSize
	for i := 0; i < src.numCells(); i++ {
		raw, err := src.rawCell(i)
		if err != nil {
			return err
		}
		ptr -= len(raw)
		copy(n.data[ptr:], raw)
		n.setCellPtr(i, ptr)
	}
	n.setContentPtr(ptr)
	return nil
}

// reserveCell makes room for a size-byte cell at index i, defragmenting
// if needed, and returns the offset the caller must write the cell at.
// The caller must have verified the cell fits the page's total free
// space.
func (n node) reserveCell(i, size int) (int, error) {
	if n.freeSpace() < size+2 {
		if err := n.defragment(); err != nil {
			return 0, err
		}
		if n.freeSpace() < size+2 {
			return 0, fmt.Errorf("%w: cell insert without room", ErrCorrupt)
		}
	}
	ptr := n.contentPtr() - size
	n.setContentPtr(ptr)
	num := n.numCells()
	// Shift pointer array right.
	copy(n.data[offCellPtr0+2*(i+1):offCellPtr0+2*(num+1)], n.data[offCellPtr0+2*i:offCellPtr0+2*num])
	n.setCellPtr(i, ptr)
	n.setNumCells(num + 1)
	return ptr, nil
}

// insertCellRaw inserts pre-encoded cell bytes at index i.
func (n node) insertCellRaw(i int, raw []byte) error {
	ptr, err := n.reserveCell(i, len(raw))
	if err != nil {
		return err
	}
	copy(n.data[ptr:], raw)
	return nil
}

// removeCell deletes cell i (the content bytes become garbage reclaimed
// by the next defragment).
func (n node) removeCell(i int) {
	num := n.numCells()
	copy(n.data[offCellPtr0+2*i:offCellPtr0+2*(num-1)], n.data[offCellPtr0+2*(i+1):offCellPtr0+2*num])
	n.setNumCells(num - 1)
}

// encodeLeafCell builds the encoded form of a leaf cell.
func encodeLeafCell(key, value []byte) []byte {
	raw := make([]byte, leafCellSize(key, value))
	putLeafCell(raw, key, value)
	return raw
}

// putLeafCell writes the encoded leaf cell into dst, which must hold at
// least leafCellSize(key, value) bytes.
func putLeafCell(dst, key, value []byte) {
	off := binary.PutUvarint(dst, uint64(len(key)))
	off += copy(dst[off:], key)
	off += binary.PutUvarint(dst[off:], uint64(len(value)))
	copy(dst[off:], value)
}

// encodeInteriorCell builds the encoded form of an interior cell.
func encodeInteriorCell(key []byte, child storage.PageID) []byte {
	raw := make([]byte, 0, interiorCellSize(key))
	raw = binary.LittleEndian.AppendUint32(raw, uint32(child))
	raw = binary.AppendUvarint(raw, uint64(len(key)))
	raw = append(raw, key...)
	return raw
}

// searchLeaf finds the index of key in a leaf, or the insertion point.
func (n node) searchLeaf(key []byte) (idx int, found bool, err error) {
	lo, hi := 0, n.numCells()
	for lo < hi {
		mid := (lo + hi) / 2
		k, err := n.cellKey(mid)
		if err != nil {
			return 0, false, err
		}
		switch bytes.Compare(k, key) {
		case 0:
			return mid, true, nil
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false, nil
}

// searchInterior returns the index of the child to descend into for
// key: the last cell whose routing key is <= key, clamped to 0.
func (n node) searchInterior(key []byte) (int, error) {
	lo, hi := 0, n.numCells() // invariant: answer in [lo-1, hi-1]
	for lo < hi {
		mid := (lo + hi) / 2
		k, err := n.cellKey(mid)
		if err != nil {
			return 0, err
		}
		if bytes.Compare(k, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, nil
	}
	return lo - 1, nil
}
