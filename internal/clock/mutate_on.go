//go:build mvrlu_mutate

package clock

// Mutation mode is ON: commit words publish late (see mutate_off.go).
// This build exists only to prove the tests catch it; it must never ship.
const mutateLatePublish = true
