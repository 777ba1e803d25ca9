//go:build !mvrlu_mutate

package kvstore

// The hash builds' planted mutations (Makefile check-si), on mvrlu-kv
// under -tags mvrlu_mutate: a multi-op body commits as two Executes with
// splitBodyGap between, and a new bucket's sentinel is stored only at
// Unlock, after the body is committed and recorded, lateBucketGap first.
// TestKVCheckCatchesSplitBody and TestKVCheckCatchesLateBucket walk the
// store in those gaps, and CheckKV must report each; CI asserts it does.
const mutateSplitBody, mutateLateBucket = false, false

var splitBodyGap, lateBucketGap = func() {}, func() {}
