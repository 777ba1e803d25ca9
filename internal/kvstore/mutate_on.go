//go:build mvrlu_mutate

package kvstore

// See mutate_off.go.
const mutateSplitBody, mutateLateBucket = true, true

var splitBodyGap, lateBucketGap = func() {}, func() {}
