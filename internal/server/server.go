package server

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mvrlu/internal/core"
	"mvrlu/internal/kvstore"
	"mvrlu/internal/obs"
	"mvrlu/internal/wal"
)

// Config configures a Server. The zero value of each field selects the
// documented default.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:6399").
	Addr string
	// Handles is the session budget: how many store sessions (engine
	// thread handles, for the mvrlu/rlu builds) the server registers.
	// Default GOMAXPROCS — more sessions than runnable goroutines can
	// never execute concurrently, they would only widen the watermark
	// scan. Connections may vastly exceed Handles.
	//
	// Over a sharded store the budget is divided across shards (minimum
	// 2 per shard, so one long scan on a shard never serializes every
	// other batch touching that shard); each shard owns an independent
	// pool, and a shard's watermark scan covers only its own pool.
	Handles int
	// MaxConns caps concurrently served connections (default 1024).
	// At the cap the server stops accepting — backpressure through the
	// kernel accept backlog — instead of accepting and failing.
	MaxConns int
	// ReadTimeout bounds reading the rest of a batch once its first
	// command has been read: it is armed once per batch, not per command,
	// so it caps the time for up to maxBatch-1 further commands together
	// (default 5s). A client that stalls mid-command past it is closed.
	ReadTimeout time.Duration
	// WriteTimeout bounds flushing a batch's replies (default 5s).
	WriteTimeout time.Duration
	// IdleTimeout bounds waiting for the next command between batches
	// (default 5m); an expired idle connection is closed.
	IdleTimeout time.Duration
	// DrainTimeout is the graceful-shutdown budget: how long Shutdown
	// waits for in-flight batches to finish before force-closing the
	// remaining connections (default 5s).
	DrainTimeout time.Duration
	// OwnsStore makes Shutdown close the store (Domain.Close for the
	// engine-backed builds) after the drain — the daemon configuration.
	// Embedders that inspect the store after a drain leave it false and
	// close the store themselves.
	OwnsStore bool
	// TraceRecent bounds how many recent traces the request-trace flight
	// recorder retains (default obs.DefaultRecentTraces); it keeps the
	// obs.DefaultSlowTraces slowest. The recorder always exists; it only
	// fills while tracing is enabled (obs.SetTraceEnabled, mvkvd -trace).
	TraceRecent int
	// WAL, when non-nil, upgrades the ack contract to "acknowledged
	// implies durable": the owner (the daemon) has installed a store
	// commit hook that appends every committed write to this log, and the
	// server inserts a durability gate between each connection's reply
	// buffer and its socket — no bytes acknowledging a write reach the
	// wire before a WAL sync barrier covering that write's record (see
	// walGate). When the log fails (sticky Err), the server refuses
	// further writes with a RESP error while reads keep serving.
	WAL *wal.Log
}

func (c *Config) sanitize() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:6399"
	}
	if c.Handles <= 0 {
		c.Handles = runtime.GOMAXPROCS(0)
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
}

// Server serves the RESP protocol over one kvstore build. Lifecycle:
// New → Listen → Serve (blocks) → Shutdown (any goroutine, or the wire
// SHUTDOWN command). Shutdown is ordered: stop accepting, drain
// in-flight batches, release the session pool, then (OwnsStore) close
// the store — the sequence that makes "acknowledged implies committed"
// hold all the way through process exit.
type Server struct {
	cfg   Config
	store kvstore.Store
	// pools are the per-shard session pools and engines the shards'
	// engine views, both indexed by shard; an engines entry is nil for a
	// build without one (rlu, vanilla). shardFor maps a key to its shard.
	// An unsharded store is the one-shard case: one pool over store and
	// shardFor constantly 0.
	pools    []*sessionPool
	engines  []core.Engine
	shardFor func(string) int
	// ordered reports whether the build's sessions carry the
	// ordered-index capability (RANGE) — probed once at startup from a
	// pooled session, so the planner can reject RANGE before queueing
	// shard work.
	ordered bool
	ln      net.Listener
	sem     chan struct{} // MaxConns slots, acquired before Accept

	mu    sync.Mutex
	conns map[*conn]struct{}

	connWG   sync.WaitGroup
	shutting atomic.Bool
	shutOnce sync.Once
	drained  chan struct{}

	start    time.Time
	accepted atomic.Uint64
	commands atomic.Uint64
	panics   atomic.Uint64

	// shardCmds counts commands executed per shard (multi-key commands
	// count once per shard touched) — the routing-balance observable
	// mvkvload reports as shard_ops. Padded: every batch increments one
	// per touched shard from whatever P runs it.
	shardCmds []shardCounter

	// reg is the metric registry (see metrics.go); batchHist records
	// per-batch service time behind obs.Enabled.
	reg       *obs.Registry
	batchHist obs.Histogram

	// flight is the request-trace flight recorder: every finished trace
	// is admitted here, TRACELOG and /debug/traces read it back, and its
	// slowest traces become exemplars on server_batch_ns at scrape.
	flight *obs.Recorder
}

// shardCounter is a cache-line-isolated per-shard command counter, so
// adjacent shards' hot-path increments do not false-share.
type shardCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// New creates a server over store. The session pools register their
// handles immediately, so engine registration cost is paid once at
// startup, not per connection. A *kvstore.Sharded store is served shard
// by shard, whatever its shard count: one pool per shard (Handles split
// across them, minimum 2 each when there are several) over the shard's
// own store, and each shard's core.Engine probed once here. Any other
// store is one shard with one pool of Handles sessions.
func New(store kvstore.Store, cfg Config) *Server {
	cfg.sanitize()
	s := &Server{
		cfg:      cfg,
		store:    store,
		shardFor: func(string) int { return 0 },
		sem:      make(chan struct{}, cfg.MaxConns),
		conns:    make(map[*conn]struct{}),
		drained:  make(chan struct{}),
		start:    time.Now(),
		flight:   obs.NewRecorder(0, cfg.TraceRecent),
	}
	shards, per := []kvstore.Store{store}, cfg.Handles
	if sh, ok := store.(*kvstore.Sharded); ok {
		n := sh.NumShards()
		shards = make([]kvstore.Store, n)
		for i := range shards {
			shards[i] = sh.Shard(i)
		}
		if n > 1 {
			per = max((cfg.Handles+n-1)/n, 2)
			s.shardFor = sh.ShardFor
		}
	}
	for _, st := range shards {
		s.pools = append(s.pools, newSessionPool(st, per))
		e, _ := st.(core.Engine)
		s.engines = append(s.engines, e)
	}
	s.shardCmds = make([]shardCounter, len(shards))
	if len(s.pools[0].all) > 0 {
		s.ordered = s.pools[0].all[0].ordered != nil
	}
	s.registerMetrics()
	return s
}

// Listen binds the configured address. Separate from Serve so callers
// can learn the bound address (Addr) before serving — tests listen on
// port 0.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Shutdown. It returns nil after a
// graceful shutdown has fully drained, or the accept error otherwise.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("server: Serve before Listen")
	}
	for {
		// Acquire a connection slot before accepting: at MaxConns the
		// listener simply stops calling Accept and excess clients queue
		// in the kernel backlog (and eventually time out themselves)
		// rather than being accepted only to be torn down.
		s.sem <- struct{}{}
		nc, err := s.ln.Accept()
		if err != nil {
			<-s.sem
			if s.shutting.Load() {
				<-s.drained
				return nil
			}
			return err
		}
		s.accepted.Add(1)
		c := newConn(s, nc)
		if !s.addConn(c) {
			nc.Close()
			<-s.sem
			continue
		}
		go c.serve()
	}
}

// addConn registers c and claims its WaitGroup slot. The Add happens
// under mu, which Shutdown acquires after setting the shutting flag and
// before waiting — so every registered connection is either visible to
// the drain wait or refused here; the Add can never race a Wait that
// already observed a zero count.
func (s *Server) addConn(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutting.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	return true
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) numConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Shutdown drains the server gracefully and blocks until done; it is
// idempotent and safe from any goroutine (the SHUTDOWN command runs it
// from a connection goroutine). Order:
//
//  1. stop accepting (close the listener; late arrivals are refused),
//  2. nudge idle connections out of their blocking reads and let
//     in-flight batches finish — every command already acknowledged has
//     been executed against the store, and each connection flushes its
//     replies before closing, so no acknowledged write is lost,
//  3. after DrainTimeout, force-close stragglers,
//  4. release the session pool (unregistering engine handles),
//  5. close the store if OwnsStore (Domain.Close: the grace-period
//     detector is stopped and joined).
func (s *Server) Shutdown() {
	s.shutOnce.Do(func() {
		s.shutting.Store(true)
		if s.ln != nil {
			s.ln.Close()
		}
		s.mu.Lock()
		for c := range s.conns {
			c.nudge()
		}
		s.mu.Unlock()
		done := make(chan struct{})
		go func() {
			s.connWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(s.cfg.DrainTimeout):
			s.mu.Lock()
			for c := range s.conns {
				c.nc.Close()
			}
			s.mu.Unlock()
			<-done
		}
		for _, p := range s.pools {
			p.close()
		}
		if s.cfg.OwnsStore {
			s.store.Close()
		}
		close(s.drained)
	})
	<-s.drained
}
