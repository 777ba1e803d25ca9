//go:build !mvrlu_mutate

package kvstore

// mutateSplitBody is the hash builds' planted mutation (see the
// Makefile's check-si gate): built with -tags mvrlu_mutate, mvrlu-kv
// commits a multi-op body as two Executes and calls splitBodyGap
// between them. TestKVCheckCatchesSplitBody walks the store in the gap,
// and CheckKV must report the torn body; CI asserts it does.
const mutateSplitBody = false

var splitBodyGap = func() {}
