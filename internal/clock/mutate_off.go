//go:build !mvrlu_mutate

package clock

// mutateLatePublish is compile-time false in the correct build. Building
// with -tags mvrlu_mutate swaps in mutate_on.go, where Seal does nothing
// and Stamp stores over Pending: every engine then draws its commit
// timestamp while the word still reads Pending and publishes it only
// afterwards, the draw-then-publish order that tears snapshots.
// TestLatePublishTearsSnapshot must fail in that build.
const mutateLatePublish = false
