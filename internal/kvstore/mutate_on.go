//go:build mvrlu_mutate

package kvstore

// See mutate_off.go: a multi-op body commits in two Executes, with
// splitBodyGap between them.
const mutateSplitBody = true

var splitBodyGap = func() {}
