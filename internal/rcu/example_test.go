package rcu_test

import (
	"fmt"
	"sync/atomic"

	"mvrlu/internal/rcu"
)

// Example shows the canonical RCU publish/read/retire pattern.
func Example() {
	type config struct{ Limit int }
	d := rcu.NewDomain()
	var current atomic.Pointer[config]
	current.Store(&config{Limit: 10})

	reader := d.Register()
	writer := d.Register()

	// Reader: wait-free snapshot access.
	reader.ReadLock()
	fmt.Println("before:", current.Load().Limit)
	reader.ReadUnlock()

	// Writer: publish a new version, then wait a grace period before
	// reclaiming the old one (the Go GC frees it; Synchronize is the
	// algorithmic ordering point).
	old := current.Load()
	current.Store(&config{Limit: 20})
	writer.Synchronize()
	_ = old // no reader can hold it now

	reader.ReadLock()
	fmt.Println("after:", current.Load().Limit)
	reader.ReadUnlock()
	// Output:
	// before: 10
	// after: 20
}
