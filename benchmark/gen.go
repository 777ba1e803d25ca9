package main

import (
	"math/rand"
	"strconv"

	"mvrlu/internal/bench"
	"mvrlu/internal/kvstore"
)

// op is one generated operation: its kind and the index of its (first)
// key. Eight bytes, so a connection's whole stream is one flat slice the
// hot loop walks without touching the random generator.
type op struct {
	kind uint8
	key  uint32
}

// streamLen is how many ops each connection's stream holds; the hot loop
// wraps around when a run needs more. The layer-cut probes replay its
// first cutOps entries.
const streamLen = 1 << 18

// genStream derives one connection's op stream from the seed alone: the
// same (workload, seed, conn) always yields the same ops. The program
// under test sees only the commands made from it.
func genStream(w *workload, seed int64, conn int, n int) []op {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(conn)*7919 + 1))
	var zipf *bench.Zipf
	if w.Zipf > 0 {
		zipf = bench.NewZipf(w.Keys, w.Zipf)
	}
	var cum [numKinds]int
	total := 0
	for k, share := range w.Mix {
		total += share
		cum[k] = total
	}
	ops := make([]op, n)
	for i := range ops {
		p := rng.Intn(total)
		kind := 0
		for p >= cum[kind] {
			kind++
		}
		var key int
		if zipf != nil {
			// Zipf ranks are scattered over the key space by a
			// multiplier coprime to every Keys value used, so the hot
			// keys are not neighbours in one bucket or tower.
			key = int(uint64(zipf.Next(rng)) * 2654435761 % uint64(w.Keys))
		} else {
			key = rng.Intn(w.Keys)
		}
		ops[i] = op{kind: uint8(kind), key: uint32(key)}
	}
	return ops
}

// Keys are "key" + ten digits (13 bytes), so byte order is numeric order
// and RANGE windows are computable. Values are
// key ':' conn(2) ':' seq(10) ':' pad, valueSize bytes in all: a GET can
// be checked against its key, and the durability audit can tell which
// connection's which write it is looking at.
const (
	keyLen      = 13
	preloadConn = 99 // conn field of values written by the preload
	valConnOff  = keyLen + 1
	valSeqOff   = valConnOff + 3
	valPadOff   = valSeqOff + 11
)

func appendPadded(b []byte, v uint64, width int) []byte {
	var tmp [20]byte
	s := strconv.AppendUint(tmp[:0], v, 10)
	for i := len(s); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, s...)
}

func appendKey(b []byte, idx uint32) []byte {
	b = append(b, "key"...)
	return appendPadded(b, uint64(idx), 10)
}

func appendValue(b []byte, idx uint32, conn int, seq uint32) []byte {
	n := len(b)
	b = appendKey(b, idx)
	b = append(b, ':')
	b = appendPadded(b, uint64(conn), 2)
	b = append(b, ':')
	b = appendPadded(b, uint64(seq), 10)
	b = append(b, ':')
	for len(b)-n < valueSize {
		b = append(b, 'x')
	}
	return b
}

func keyString(idx uint32) string { return string(appendKey(nil, idx)) }

func valueString(idx uint32, conn int, seq uint32) string {
	return string(appendValue(nil, idx, conn, seq))
}

// parseValue splits a value into its connection and sequence fields; ok
// is false when v is not a value this benchmark wrote for key idx.
func parseValue(v []byte, idx uint32) (conn int, seq uint32, ok bool) {
	if len(v) != valueSize || v[keyLen] != ':' || v[valSeqOff-1] != ':' || v[valPadOff-1] != ':' {
		return 0, 0, false
	}
	var kb [keyLen]byte
	if string(appendKey(kb[:0], idx)) != string(v[:keyLen]) {
		return 0, 0, false
	}
	c, ok1 := atoi(v[valConnOff : valConnOff+2])
	s, ok2 := atoi(v[valSeqOff : valSeqOff+10])
	return c, uint32(s), ok1 && ok2
}

// userBytes is Σ(key+value bytes) of the live records of a server
// workload — the denominator of mem_per_user_byte and
// wal.bytes_per_user_byte.
func userBytes(w *workload) float64 { return float64(w.Keys) * (keyLen + valueSize) }

// txnPeers returns, for every key, the next txnKeys-1 keys (cyclically)
// that live on the same shard: a MULTI body must not cross shards, so a
// transaction on key k writes k and txnPeers[k]. Unsharded stores take
// the next keys as they come.
func txnPeers(keys, shards int) [][txnKeys - 1]uint32 {
	shard := make([]uint8, keys)
	for i := range shard {
		shard[i] = uint8(kvstore.ShardOf(keyString(uint32(i)), shards))
	}
	peers := make([][txnKeys - 1]uint32, keys)
	for i := range peers {
		j := i
		for n := 0; n < txnKeys-1; n++ {
			for j = (j + 1) % keys; shard[j] != shard[i]; j = (j + 1) % keys {
			}
			peers[i][n] = uint32(j)
		}
	}
	return peers
}
