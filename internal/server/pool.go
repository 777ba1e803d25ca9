package server

import (
	"sync/atomic"

	"mvrlu/internal/kvstore"
)

// sessionPool is the bounded set of store sessions the server multiplexes
// connections over. Registering an engine thread handle per connection
// would make the watermark scan O(connections) and leave thousands of
// idle handles for the grace-period detector to consider; instead the
// pool holds Handles sessions (≈ GOMAXPROCS — more can never run at
// once) and a connection checks one out only for the duration of one
// pipelined command batch.
//
// The checkout channel is what makes this legal under the kvstore
// Session contract (one goroutine at a time, hand-off with a
// happens-before edge): a channel receive observes everything the
// previous holder did before its send.
type sessionPool struct {
	free chan *pooledSession
	all  []*pooledSession
}

// pooledSession wraps one store session with the observability the INFO
// command surfaces: which engine thread backs it (the id the stall
// detector names when this session's snapshot pins the watermark), and
// what it is doing.
type pooledSession struct {
	idx      int
	sess     kvstore.TxnSession     // every single-domain build applies MULTI bodies
	ordered  kvstore.OrderedSession // sess's range capability; nil on the hash builds
	threadID int                    // sess.ThreadID(), read once
	inUse    atomic.Bool
	batches  atomic.Uint64
	commands atomic.Uint64
	lastCmd  atomic.Pointer[string]
}

func newSessionPool(store kvstore.Store, n int) *sessionPool {
	p := &sessionPool{free: make(chan *pooledSession, n)}
	for i := 0; i < n; i++ {
		sess := store.Session().(kvstore.TxnSession)
		ps := &pooledSession{idx: i, sess: sess, threadID: sess.ThreadID()}
		ps.ordered, _ = sess.(kvstore.OrderedSession)
		none := ""
		ps.lastCmd.Store(&none)
		p.all = append(p.all, ps)
		p.free <- ps
	}
	return p
}

// get checks a session out, blocking until one is free. Fairness is the
// channel's FIFO; a long scan on one session delays at most the
// connections that would have needed that same slot.
func (p *sessionPool) get() *pooledSession {
	ps := <-p.free
	ps.inUse.Store(true)
	ps.batches.Add(1)
	return ps
}

// put returns a session after a batch.
func (p *sessionPool) put(ps *pooledSession) {
	ps.inUse.Store(false)
	p.free <- ps
}

// close releases every session. All sessions must have been returned
// (the server drains connections first); the receive loop both asserts
// that and orders close after the last put.
func (p *sessionPool) close() {
	for range p.all {
		ps := <-p.free
		ps.sess.Close()
	}
}
