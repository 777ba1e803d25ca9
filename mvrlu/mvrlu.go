// Package mvrlu is the public API of the MV-RLU library: multi-version
// read-log-update synchronization (Kim et al., ASPLOS 2019).
//
// It re-exports the engine in internal/core. See that package's
// documentation for the programming model; the one-minute version:
//
//	type Node struct {
//	        Key  int
//	        Next *mvrlu.Object[Node]
//	}
//
//	dom := mvrlu.NewDomain[Node](mvrlu.DefaultOptions())
//	defer dom.Close()
//	head := mvrlu.NewObject(Node{Key: -1})
//
//	h := dom.Register()                     // once per goroutine
//	h.Execute(func(h *mvrlu.Thread[Node]) bool {
//	        c, ok := h.TryLock(head)        // lock + private copy
//	        if !ok {
//	                return false            // conflict: abort & retry
//	        }
//	        c.Next = mvrlu.NewObject(Node{Key: 1})
//	        return true                     // commit atomically
//	})
//
//	h.ReadLock()
//	n := h.Deref(head).Next                 // consistent snapshot
//	_ = h.Deref(n).Key
//	h.ReadUnlock()
package mvrlu

import (
	"mvrlu/internal/check"
	"mvrlu/internal/core"
)

// Domain is an MV-RLU synchronization domain. See core.Domain.
type Domain[T any] = core.Domain[T]

// Thread is a per-goroutine MV-RLU handle. See core.Thread.
type Thread[T any] = core.Thread[T]

// Object is a master object with its version chain. See core.Object.
type Object[T any] = core.Object[T]

// Options configure a Domain. See core.Options.
type Options = core.Options

// Stats is a domain counter snapshot. See core.Stats.
type Stats = core.Stats

// StallInfo describes a watermark stall reported through Options.OnStall
// or Domain.Stalled. See core.StallInfo.
type StallInfo = core.StallInfo

// GCMode selects the garbage-collection strategy.
type GCMode = core.GCMode

// ClockMode selects the timestamp source.
type ClockMode = core.ClockMode

// GC and clock mode values; see the core package for semantics.
const (
	GCConcurrent      = core.GCConcurrent
	GCSingleCollector = core.GCSingleCollector
	ClockOrdo         = core.ClockOrdo
	ClockGlobal       = core.ClockGlobal
)

// NewDomain creates a domain with the given options.
func NewDomain[T any](opts Options) *Domain[T] { return core.NewDomain[T](opts) }

// NewDefaultDomain creates a domain with DefaultOptions.
func NewDefaultDomain[T any]() *Domain[T] { return core.NewDefaultDomain[T]() }

// NewObject allocates a master object holding data.
func NewObject[T any](data T) *Object[T] { return core.NewObject(data) }

// DefaultOptions mirror the paper's configuration (§6.1).
func DefaultOptions() Options { return core.DefaultOptions() }

// Execution checking (see DESIGN.md §9 and internal/check): attach a
// History via Options.Check, which records from NewDomain on, and run
// CheckHistory over the quiesced domain's record to verify snapshot
// isolation, lost-update freedom, write-skew prevention, and GC safety
// offline. Without these aliases the Options.Check field would name a
// type external importers cannot reach.

// History records an execution for offline checking. See check.History.
type History = check.History

// CheckOpts configures CheckHistory. See check.Opts.
type CheckOpts = check.Opts

// CheckReport is a checker verdict. See check.Report.
type CheckReport = check.Report

// NewHistory allocates a recording buffer; maxEvents bounds each event
// stream (0 means the package default).
func NewHistory(maxEvents int) *History { return check.NewHistory(maxEvents) }

// CheckHistory runs the offline checker. Pass the domain's Boundary()
// as CheckOpts.Boundary so ORDO-ambiguous observations are not
// misreported.
func CheckHistory(h *History, o CheckOpts) *CheckReport { return check.Check(h, o) }
