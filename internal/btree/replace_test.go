package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rql/internal/storage"
)

// treeOpSize is the number of bytes runTreeOps consumes per operation.
const treeOpSize = 3

// runTreeOps interprets ops as a sequence of tree operations over a
// small key space with large values, so pages fill, split and empty,
// and most puts replace an existing key. Each operation is three bytes
// (kind, key, length):
//
//	kind%5 == 0, 1: put key with a value of 3*length bytes
//	kind%5 == 2:    replace the value of key with one of equal length
//	kind%5 == 3:    replace the value of key with a shorter or longer one
//	kind%5 == 4:    delete key
//
// Replacements of a key that is absent fall back to a plain put. After
// every operation the tree must pass CheckInvariants, hold no two
// overlapping live cells, and (at the end) scan equal to a map model.
func runTreeOps(t testing.TB, ops []byte) {
	t.Helper()
	s := storage.NewStore()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	root, err := Create(tx)
	if err != nil {
		t.Fatal(err)
	}
	tr := Open(tx, root)
	model := map[string]string{}
	for step := 0; step+treeOpSize <= len(ops); step += treeOpSize {
		kind, kb, lb := ops[step], ops[step+1], int(ops[step+2])
		key := fmt.Sprintf("key-%03d", kb%160)
		old, exists := model[key]
		n := 3 * lb
		switch kind % 5 {
		case 2:
			if exists {
				n = len(old)
			}
		case 3:
			if exists {
				n = len(old) + lb%64 - 32
				if n < 0 {
					n = 0
				}
			}
		}
		if kind%5 == 4 {
			found, err := tr.Delete([]byte(key))
			if err != nil {
				t.Fatalf("op %d: Delete(%s): %v", step/treeOpSize, key, err)
			}
			if found != exists {
				t.Fatalf("op %d: Delete(%s) found=%v, model has it: %v", step/treeOpSize, key, found, exists)
			}
			delete(model, key)
		} else {
			val := bytes.Repeat([]byte{byte('a' + step%26)}, n)
			if err := tr.Insert([]byte(key), val); err != nil {
				t.Fatalf("op %d: Insert(%s, %d bytes): %v", step/treeOpSize, key, n, err)
			}
			model[key] = string(val)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", step/treeOpSize, err)
		}
		if err := checkCellsDisjoint(tr, tr.root); err != nil {
			t.Fatalf("op %d: %v", step/treeOpSize, err)
		}
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c := tr.Cursor()
	ok, err := c.First()
	i := 0
	for ; ok && err == nil; ok, err = c.Next() {
		if i >= len(keys) || string(c.Key()) != keys[i] || string(c.Value()) != model[keys[i]] {
			t.Fatalf("scan position %d: got key %q (%d-byte value), model disagrees", i, c.Key(), len(c.Value()))
		}
		i++
	}
	if err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("tree has %d keys, model has %d", i, len(keys))
	}
}

// checkCellsDisjoint verifies that in every node under id the live
// cells lie inside the content area and no two of them overlap.
func checkCellsDisjoint(tr *Tree, id storage.PageID) error {
	n, err := tr.page(id)
	if err != nil {
		return err
	}
	type span struct{ start, end int }
	spans := make([]span, 0, n.numCells())
	for i := 0; i < n.numCells(); i++ {
		raw, err := n.rawCell(i)
		if err != nil {
			return err
		}
		p := n.cellPtr(i)
		if p < n.contentPtr() || p+len(raw) > storage.PageSize {
			return fmt.Errorf("node %d cell %d at [%d,%d) outside content area [%d,%d)",
				id, i, p, p+len(raw), n.contentPtr(), storage.PageSize)
		}
		spans = append(spans, span{p, p + len(raw)})
	}
	if n.contentPtr() < offCellPtr0+2*n.numCells() {
		return fmt.Errorf("node %d content pointer %d below its cell pointer array", id, n.contentPtr())
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	for i := 1; i < len(spans); i++ {
		if spans[i].start < spans[i-1].end {
			return fmt.Errorf("node %d cells [%d,%d) and [%d,%d) overlap",
				id, spans[i-1].start, spans[i-1].end, spans[i].start, spans[i].end)
		}
	}
	if n.isLeaf() {
		return nil
	}
	for i := 0; i < n.numCells(); i++ {
		_, child, err := n.interiorCell(i)
		if err != nil {
			return err
		}
		if err := checkCellsDisjoint(tr, child); err != nil {
			return err
		}
	}
	return nil
}

// randomTreeOps returns count operations for runTreeOps from a seeded
// generator.
func randomTreeOps(seed int64, count int) []byte {
	r := rand.New(rand.NewSource(seed))
	ops := make([]byte, treeOpSize*count)
	r.Read(ops)
	return ops
}

func TestReplaceInPlaceAgainstModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runTreeOps(t, randomTreeOps(seed, 4000))
		})
	}
}

// TestReplaceReusesSlot pins the in-place path itself: a replacement no
// larger than the old cell keeps the cell's offset and the page's
// content pointer; a larger one moves the cell.
func TestReplaceReusesSlot(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	for i := 0; i < 5; i++ {
		if err := tr.Insert(ikey(i), bytes.Repeat([]byte{'v'}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	leaf, err := tr.page(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	ptr, content := leaf.cellPtr(2), leaf.contentPtr()
	for _, n := range []int{40, 10} {
		if err := tr.Insert(ikey(2), bytes.Repeat([]byte{'w'}, n)); err != nil {
			t.Fatal(err)
		}
		if leaf.cellPtr(2) != ptr || leaf.contentPtr() != content {
			t.Fatalf("%d-byte replacement moved the cell: ptr %d->%d, content %d->%d",
				n, ptr, leaf.cellPtr(2), content, leaf.contentPtr())
		}
	}
	if err := tr.Insert(ikey(2), bytes.Repeat([]byte{'x'}, 80)); err != nil {
		t.Fatal(err)
	}
	if leaf.cellPtr(2) == ptr {
		t.Fatal("a larger replacement was written over the smaller slot")
	}
	if v, _, err := tr.Get(ikey(2)); err != nil || !bytes.Equal(v, bytes.Repeat([]byte{'x'}, 80)) {
		t.Fatalf("Get after growth = %q, %v", v, err)
	}
	if err := checkCellsDisjoint(tr, tr.root); err != nil {
		t.Fatal(err)
	}
}

// FuzzTreeOps runs arbitrary operation sequences through runTreeOps.
// Run it with: go test -run '^$' -fuzz FuzzTreeOps ./internal/btree
func FuzzTreeOps(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		f.Add(randomTreeOps(seed, 100))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > treeOpSize*300 {
			ops = ops[:treeOpSize*300]
		}
		runTreeOps(t, ops)
	})
}

func TestDefragmentAllocatesNothing(t *testing.T) {
	n := freshLeaf()
	initNode(n, nodeLeaf)
	for i := 0; i < 20; i++ {
		if err := n.insertCellRaw(i, encodeLeafCell(ikey(i), bytes.Repeat([]byte{1}, 50))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 19; i >= 0; i -= 2 {
		n.removeCell(i)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := n.defragment(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("defragment allocated %.0f times per run, want 0", allocs)
	}
}
