// Package splay implements the address-range splay tree that SVA's
// run-time checks use to record registered memory objects (paper §4.1,
// §4.5).  Each metapool owns one tree; bounds checks and load-store checks
// look up the object containing a pointer value.  Splaying moves recently
// checked objects to the root, which is what made the extended Jones–Kelly
// bounds checking practical in SAFECode.
package splay

import "fmt"

// Range is a registered object: the half-open address interval
// [Start, Start+Len).
type Range struct {
	Start uint64
	Len   uint64
	// Tag carries caller data (e.g. the kernel allocation site).
	Tag uint32
}

// End returns the exclusive end address.
func (r Range) End() uint64 { return r.Start + r.Len }

// Contains reports whether addr falls inside the range.
func (r Range) Contains(addr uint64) bool { return addr >= r.Start && addr < r.End() }

func (r Range) String() string { return fmt.Sprintf("[%#x,%#x)", r.Start, r.End()) }

type node struct {
	r           Range
	left, right *node
}

// Tree is a top-down splay tree of non-overlapping address ranges keyed by
// start address.  The zero value is an empty tree ready for use.
type Tree struct {
	root *node
	size int
	// free chains recycled nodes through their left pointers.  Stack
	// objects register and drop once per kernel trap, so node turnover is
	// the hottest allocation in the whole check path; the free list keeps
	// it off the host allocator.  Bounded by the tree's peak size.
	free *node

	// Lookups counts Find operations (run-time check accounting).
	Lookups uint64
}

// newNode hands out a recycled node or a fresh one.
func (t *Tree) newNode(r Range) *node {
	if n := t.free; n != nil {
		t.free = n.left
		n.r = r
		n.left, n.right = nil, nil
		return n
	}
	return &node{r: r}
}

// freeNode returns a detached node to the free list.
func (t *Tree) freeNode(n *node) {
	n.right = nil
	n.left = t.free
	t.free = n
}

// Len returns the number of registered ranges.
func (t *Tree) Len() int { return t.size }

// splay moves the node whose range contains key — or the last node on the
// search path — to the root.  Standard top-down splaying.
func (t *Tree) splay(key uint64) {
	if t.root == nil {
		return
	}
	var header node
	l, r := &header, &header
	cur := t.root
	for {
		if key < cur.r.Start {
			if cur.left == nil {
				break
			}
			if key < cur.left.r.Start {
				// rotate right
				y := cur.left
				cur.left = y.right
				y.right = cur
				cur = y
				if cur.left == nil {
					break
				}
			}
			r.left = cur
			r = cur
			cur = cur.left
		} else if key >= cur.r.End() {
			if cur.right == nil {
				break
			}
			if key >= cur.right.r.End() {
				// rotate left
				y := cur.right
				cur.right = y.left
				y.left = cur
				cur = y
				if cur.right == nil {
					break
				}
			}
			l.right = cur
			l = cur
			cur = cur.right
		} else {
			break // cur contains key
		}
	}
	l.right = cur.left
	r.left = cur.right
	cur.left = header.right
	cur.right = header.left
	t.root = cur
}

// Insert registers a range.  It returns false (and leaves the tree
// unchanged) if the range overlaps an existing one or has zero length.
func (t *Tree) Insert(r Range) bool {
	if r.Len == 0 {
		return false
	}
	if r.Start+r.Len < r.Start {
		return false // address wraparound
	}
	if t.root == nil {
		t.root = t.newNode(r)
		t.size++
		return true
	}
	t.splay(r.Start)
	// After splaying, root is the closest range.  Check overlap with root
	// and with the neighbor on the other side.
	if rangesOverlap(t.root.r, r) {
		return false
	}
	n := t.newNode(r)
	if r.Start < t.root.r.Start {
		// Check the rightmost node of root.left for overlap.
		if t.root.left != nil {
			p := t.root.left
			for p.right != nil {
				p = p.right
			}
			if rangesOverlap(p.r, r) {
				return false
			}
		}
		n.left = t.root.left
		n.right = t.root
		t.root.left = nil
	} else {
		if t.root.right != nil {
			p := t.root.right
			for p.left != nil {
				p = p.left
			}
			if rangesOverlap(p.r, r) {
				return false
			}
		}
		n.right = t.root.right
		n.left = t.root
		t.root.right = nil
	}
	t.root = n
	t.size++
	return true
}

func rangesOverlap(a, b Range) bool {
	return a.Start < b.End() && b.Start < a.End()
}

// Find returns the range containing addr, splaying it to the root.
func (t *Tree) Find(addr uint64) (Range, bool) {
	t.Lookups++
	return t.find(addr)
}

// find is Find without the Lookups count.
func (t *Tree) find(addr uint64) (Range, bool) {
	if t.root == nil {
		return Range{}, false
	}
	t.splay(addr)
	if t.root.r.Contains(addr) {
		return t.root.r, true
	}
	return Range{}, false
}

// FindStart returns the range that starts exactly at addr.  It serves
// deregistration, not run-time checks, so it leaves Lookups alone.
func (t *Tree) FindStart(addr uint64) (Range, bool) {
	r, ok := t.find(addr)
	if !ok || r.Start != addr {
		return Range{}, false
	}
	return r, true
}

// Remove deletes the range containing addr, returning it.
func (t *Tree) Remove(addr uint64) (Range, bool) {
	if t.root == nil {
		return Range{}, false
	}
	t.splay(addr)
	if !t.root.r.Contains(addr) {
		return Range{}, false
	}
	dead := t.root
	removed := dead.r
	if t.root.left == nil {
		t.root = t.root.right
	} else {
		right := t.root.right
		t.root = t.root.left
		t.splay(addr) // splays max of left subtree to root
		t.root.right = right
	}
	t.size--
	t.freeNode(dead)
	return removed, true
}

// FindOverlap returns some range overlapping [start, start+length).  It is
// used on the registration-conflict path only, so a linear fallback is
// acceptable.
func (t *Tree) FindOverlap(start, length uint64) (Range, bool) {
	if r, ok := t.Find(start); ok {
		return r, true
	}
	var hit Range
	found := false
	t.Walk(func(r Range) bool {
		if r.Start < start+length && start < r.End() {
			hit = r
			found = true
			return false
		}
		return r.Start < start+length
	})
	return hit, found
}

// OverlapRanges returns up to max ranges overlapping [start, start+length),
// in ascending start order, WITHOUT splaying.  The page-map invalidation
// protocol uses it to recompute a page node after a free: it must see every
// object on the page but may not reshape the tree (the read path holds no
// lock on the tree structure beyond the pool mutex, and a read-only query
// keeps the oracle comparison honest).  Ranges never overlap each other, so
// subtrees entirely left of start or right of end can be pruned.
func (t *Tree) OverlapRanges(start, length uint64, max int) []Range {
	end := start + length
	if end < start { // wraparound: clamp to the address-space top
		end = ^uint64(0)
	}
	var out []Range
	var rec func(n *node) bool
	rec = func(n *node) bool {
		if n == nil {
			return true
		}
		// Children are strictly ordered by start and ranges are disjoint,
		// so a node ending at or before start rules out its left subtree,
		// and one starting at or after end rules out its right subtree.
		if n.r.End() > start {
			if !rec(n.left) {
				return false
			}
		}
		if n.r.Start < end && n.r.End() > start {
			out = append(out, n.r)
			if max > 0 && len(out) >= max {
				return false
			}
		}
		if n.r.Start < end {
			return rec(n.right)
		}
		return true
	}
	rec(t.root)
	return out
}

// Walk visits every range in ascending start order.  The visit function
// returns false to stop early.
func (t *Tree) Walk(visit func(Range) bool) {
	var rec func(n *node) bool
	rec = func(n *node) bool {
		if n == nil {
			return true
		}
		if !rec(n.left) {
			return false
		}
		if !visit(n.r) {
			return false
		}
		return rec(n.right)
	}
	rec(t.root)
}

// MutateNth applies f to the k-th range in ascending start order,
// mutating the node in place and returning the pre-mutation range.  It
// deliberately bypasses every structural invariant Insert maintains: it is
// the fault-injection seam metapools use to model corrupted check metadata
// (a flipped bit in a splay node), and has no legitimate caller on the
// check path.
func (t *Tree) MutateNth(k int, f func(*Range)) (Range, bool) {
	var hit *node
	i := 0
	var rec func(n *node) bool
	rec = func(n *node) bool {
		if n == nil {
			return true
		}
		if !rec(n.left) {
			return false
		}
		if i == k {
			hit = n
			return false
		}
		i++
		return rec(n.right)
	}
	rec(t.root)
	if hit == nil {
		return Range{}, false
	}
	old := hit.r
	f(&hit.r)
	return old, true
}

// Clear removes all ranges.
func (t *Tree) Clear() {
	t.root = nil
	t.size = 0
}

// ClearRecycle removes all ranges and returns every node to the free list.
// Pool resets use it so a guest that tears down and re-creates a pool
// (microreboot, pool_destroy/pool_create cycles) reuses the old tree's
// nodes instead of re-paying the allocation cost of growing it back.
func (t *Tree) ClearRecycle() {
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		l, r := n.left, n.right
		t.freeNode(n)
		rec(l)
		rec(r)
	}
	rec(t.root)
	t.root = nil
	t.size = 0
}

// Overlaps reports whether a and b share at least one address.
func (a Range) Overlaps(b Range) bool { return rangesOverlap(a, b) }

// Depth returns the tree's current height (0 for an empty tree).  Splaying
// reshapes the tree on every lookup, so this is a point-in-time gauge for
// telemetry, not a stable property.
func (t *Tree) Depth() int {
	var rec func(n *node) int
	rec = func(n *node) int {
		if n == nil {
			return 0
		}
		l, r := rec(n.left), rec(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return rec(t.root)
}
