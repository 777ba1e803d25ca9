package kvstore

import (
	"fmt"
	"strings"

	"mvrlu/internal/core"
)

// New constructs a store build by name.
func New(name string, slots, bucketsPerSlot int) (Store, error) {
	if slots <= 0 {
		slots = DefaultSlots
	}
	if bucketsPerSlot <= 0 {
		bucketsPerSlot = DefaultBucketsPerSlot
	}
	switch name {
	case "vanilla":
		return NewVanilla(slots, bucketsPerSlot), nil
	case "rlu-kv":
		return NewRLUStore(slots, bucketsPerSlot), nil
	case "mvrlu-kv":
		return NewMVRLUStore(slots, bucketsPerSlot, core.DefaultOptions()), nil
	}
	if ctor, ok := extraBuilds[name]; ok {
		return ctor(slots, bucketsPerSlot), nil
	}
	return nil, fmt.Errorf("kvstore: unknown build %q (%s)", name, strings.Join(Names(), ", "))
}

// extraBuilds holds builds registered by other packages (the
// internal/index ordered stores register in their init; importers pull
// them in with a blank import). Registration happens at init time only,
// so the map needs no lock.
var (
	extraBuilds = map[string]func(slots, bucketsPerSlot int) Store{}
	extraNames  []string
)

// RegisterBuild makes New/NewSharded construct name via ctor. Panics on
// a duplicate name; call from init only.
func RegisterBuild(name string, ctor func(slots, bucketsPerSlot int) Store) {
	if _, dup := extraBuilds[name]; dup {
		panic("kvstore: duplicate build " + name)
	}
	extraBuilds[name] = ctor
	extraNames = append(extraNames, name)
}

// NewSharded constructs a store build partitioned over shards
// independent instances (for the mvrlu build: shards independent
// core.Domains, each with its own watermark, detector, and GC). The slot
// count is divided across shards (minimum 1 per shard) so the total
// writer-lock and bucket budget stays comparable to the unsharded
// layout. shards <= 1 returns the plain single-domain build.
func NewSharded(name string, shards, slots, bucketsPerSlot int) (Store, error) {
	if shards <= 1 {
		return New(name, slots, bucketsPerSlot)
	}
	if slots <= 0 {
		slots = DefaultSlots
	}
	perSlots := slots / shards
	if perSlots < 1 {
		perSlots = 1
	}
	stores := make([]Store, shards)
	for i := range stores {
		st, err := New(name, perSlots, bucketsPerSlot)
		if err != nil {
			return nil, err
		}
		stores[i] = st
	}
	return NewShardedStore(stores), nil
}

// Names lists the available builds, registered ones included in
// registration order.
func Names() []string {
	return append([]string{"vanilla", "rlu-kv", "mvrlu-kv"}, extraNames...)
}
