package core

import "sync/atomic"

// Object is a master object plus its version chain (§2.2, Figure 3). User
// data structures link objects with ordinary Go pointers to Object values;
// Thread.Deref selects the right version on every hop.
//
// Create objects with Domain.Alloc (or New on a Thread); the zero Object
// is valid but carries the zero payload.
type Object[T any] struct {
	// copy is the head of the committed version chain (p-copy), newest
	// first; nil when the master is the only version.
	copy atomic.Pointer[version[T]]
	// pending is the uncommitted copy (p-pending) and doubles as the
	// per-object try-lock word. The domain's write-back sentinel
	// occupies it during GC write-back, which is the paper's
	// reclamation barrier in per-object form; its freed marker occupies
	// it for good once a Free committed (§3.8).
	pending atomic.Pointer[version[T]]
	// master is the master copy of the payload. It is read by
	// dereferences that find no applicable version and written only
	// during GC write-back, when the watermark proves no reader can be
	// reading it.
	master T
}

// NewObject allocates a master object holding data. It is the package's
// alloc (§2.1); the object participates in version management as soon as
// some thread locks it.
func NewObject[T any](data T) *Object[T] {
	return &Object[T]{master: data}
}

// Freed reports whether the object has been freed. Dereferencing a freed
// object from an old snapshot is legal; locking it is not.
func (o *Object[T]) Freed() bool {
	p := o.pending.Load()
	return p != nil && p.owner == freedOwner
}
