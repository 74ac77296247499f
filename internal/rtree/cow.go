package rtree

import "github.com/girlib/gir/internal/pager"

// Copy-on-write mutations. Between BeginCOW and CommitCOW, writeNode never
// overwrites an existing page: the first write to a node this mutation
// relocates it to a freshly allocated page id, records old→new in the
// remap, and marks the old page superseded. Because every R* mutation
// rewrites the full path from each modified node to the root (its one
// walk back up, ascend — verified invariant, see writeNode), the
// relocation propagates: ancestors re-encode their child pointers through
// the remap, and resolving the root at commit yields a tree whose every
// reachable page was either untouched by the mutation or freshly written.
// The pages of the previous version are never modified, so a reader that
// captured the old (root, height, size) triple before the commit keeps
// traversing the exact old version — snapshot isolation with no reader
// lock. The caller (gir.Dataset) publishes the new triple with an atomic
// pointer swap and hands the superseded pages to its epoch/refcount
// reclamation, which returns them to the pager freelist once no pinned
// snapshot can still reach them.
type cowState struct {
	// remap sends each superseded page id to its replacement. Fresh pages
	// are written in place and never remapped, so lookups never chain.
	remap map[pager.PageID]pager.PageID
	// fresh marks pages allocated by this mutation: invisible to any
	// published version, so rewriting them in place is safe.
	fresh map[pager.PageID]struct{}
	// freed accumulates the superseded pages: every relocated page, plus
	// pages the mutation structurally discarded (dissolved underfull
	// nodes, roots shed by the shrink loop).
	freed []pager.PageID
}

// BeginCOW starts a copy-on-write mutation. Until CommitCOW, all node
// writes relocate to fresh pages and reads resolve through the remap, so
// the tree handle observes its own uncommitted writes while every
// already-published page stays untouched.
func (t *Tree) BeginCOW() {
	if t.cow != nil {
		panic("rtree: BeginCOW with a copy-on-write mutation already open")
	}
	t.cow = &cowState{
		remap: make(map[pager.PageID]pager.PageID),
		fresh: make(map[pager.PageID]struct{}),
	}
}

// CommitCOW finishes the mutation: the root is resolved to its relocated
// page, and the superseded page ids are returned together with the fresh
// ones — exactly the pages this mutation wrote, which is what an
// incremental checkpoint has to persist. The caller owns making the new
// version visible and eventually freeing the superseded pages — they still
// back every previously published version, so they must reach
// pager.Store.Free only once no pinned snapshot references them.
func (t *Tree) CommitCOW() (freed []pager.PageID, fresh map[pager.PageID]struct{}) {
	if t.cow == nil {
		panic("rtree: CommitCOW without BeginCOW")
	}
	t.root = t.resolveID(t.root)
	freed, fresh = t.cow.freed, t.cow.fresh
	t.cow = nil
	return freed, fresh
}

// resolveID maps a page id through the open mutation's remap (identity
// when no mutation is open or the page was not relocated).
func (t *Tree) resolveID(id pager.PageID) pager.PageID {
	if t.cow == nil {
		return id
	}
	if to, ok := t.cow.remap[id]; ok {
		return to
	}
	return id
}

// allocPage reserves a page, marking it fresh when a copy-on-write
// mutation is open (fresh pages are writable in place).
func (t *Tree) allocPage() pager.PageID {
	id := t.store.Alloc()
	if t.cow != nil {
		t.cow.fresh[id] = struct{}{}
	}
	return id
}

// retirePage marks a page superseded without a replacement — a dissolved
// underfull node or a shed root. Outside a copy-on-write mutation this is
// a no-op (the page just leaks in the store, as the in-place tree always
// did).
func (t *Tree) retirePage(id pager.PageID) {
	if t.cow != nil {
		t.cow.freed = append(t.cow.freed, id)
	}
}
