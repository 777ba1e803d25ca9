// Package wal is the group-committed write-ahead log that upgrades the
// server's guarantee from "acknowledged implies committed" to
// "acknowledged implies durable".
//
// MV-RLU commit timestamps already totally order every write within a
// shard domain (PAPER.md §4), so the log is just the commit-record
// stream: sessions enqueue CRC-framed records onto a bounded in-memory
// queue, and a single logger goroutine writes it out when a write is
// demanded — a SyncBarrier waiting on an unsynced record, the queue
// reaching its drain size, a rotation, or Close. Each demand drains the
// whole queue as one batch under one fsync (group commit — the enqueue
// → batch → fsync → notify shape of SNIPPETS.md Snippet 1, writing only
// when asked as go-journal's Flush does in Snippet 2) and releases every
// waiting session once their records are durable. When the log outruns
// the logger or the installer, appenders block on a condvar (the
// waitForSpace shape of Snippet 2) instead of growing memory without
// bound.
//
// Durability model and replay ordering:
//
//   - A record is durable once its batch's fsync returned. SyncBarrier
//     waits for exactly that; the server acks a write only after the
//     barrier covering it.
//   - Replay sorts records by (epoch, timestamp) with log order as the
//     tie-break. Within one process lifetime (epoch), per-shard commit
//     timestamps order writes; epochs paper over the domain clock
//     restarting with the process (a small post-restart timestamp must
//     beat a large pre-restart one).
//   - A snapshot ("installer" output) bounds replay: segments below the
//     snapshot's base are pruned once the snapshot is durable. Every
//     store build logs each key in commit order and makes a write
//     visible before logging it, so no pruned record is newer than a
//     replayed one for the same key. Snapshots written by earlier
//     binaries may carry per-shard cutoffs in their header; replay still
//     skips same-epoch records at or below them.
//
// Torn tails vs corruption: a frame truncated mid-write at the end of the
// last segment is the expected crash artifact — recovery truncates it
// physically and continues. A complete frame whose CRC does not match,
// or a short frame anywhere but the last segment's tail, is corruption
// the crash model cannot produce, and Open refuses to start rather than
// silently skipping committed data.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record is one durable commit record: a single key's committed write
// (or delete) with the shard-local commit timestamp that orders it.
type Record struct {
	// Seq is the log sequence number, assigned at enqueue, strictly
	// increasing in log order across segments within one epoch.
	Seq uint64
	// TS is the engine commit timestamp (shard-local domain clock).
	TS uint64
	// Shard is the index of the owning shard (0 for unsharded stores).
	Shard uint32
	// Del marks a delete; Value is empty then.
	Del   bool
	Key   string
	Value string
	// Epoch is stamped from the segment header at recovery; zero on
	// records being appended (the live segment's epoch applies).
	Epoch uint64
	// TxnCont marks a record whose transaction group continues with the
	// NEXT record: AppendGroup sets it on every record of a multi-key
	// commit except the last. Recovery treats a log whose final records
	// form an unterminated group as a torn transaction and truncates
	// them all — the group's fsync never returned, so none of it was
	// acknowledged (see scanSegment).
	TxnCont bool
}

const (
	// frameHeader is the per-frame overhead: u32 payload length + u32
	// CRC32-C of the payload.
	frameHeader = 8
	// recFixed is the fixed part of a record payload: seq(8) ts(8)
	// shard(4) flags(1) klen(4) vlen(4).
	recFixed = 29
	// maxFrame bounds a single frame's payload — a sanity cap so a
	// corrupt length field cannot demand an absurd allocation.
	maxFrame = 1 << 30

	flagDel     = 1 << 0
	flagTxnCont = 1 << 1
)

// castagnoli is the CRC32-C table (the polynomial with hardware support
// on both x86 and arm64 — the conventional WAL checksum).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodedLen returns the full frame size of r.
func (r *Record) encodedLen() int {
	return frameHeader + recFixed + len(r.Key) + len(r.Value)
}

// appendFrame encodes r as one CRC-framed record into buf.
func (r *Record) appendFrame(buf []byte) []byte {
	plen := recFixed + len(r.Key) + len(r.Value)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(plen))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC placeholder
	payloadAt := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, r.TS)
	buf = binary.LittleEndian.AppendUint32(buf, r.Shard)
	var flags byte
	if r.Del {
		flags |= flagDel
	}
	if r.TxnCont {
		flags |= flagTxnCont
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Value)))
	buf = append(buf, r.Key...)
	buf = append(buf, r.Value...)
	crc := crc32.Checksum(buf[payloadAt:], castagnoli)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc)
	return buf
}

// frameResult classifies one attempted frame read.
type frameResult int

const (
	frameOK frameResult = iota
	// frameTorn: the remaining bytes cannot hold the frame the header
	// declares (or not even a header) — a truncated write. Legal only at
	// the tail of the last segment.
	frameTorn
	// frameCorrupt: a complete frame whose CRC does not match — byte
	// corruption, never produced by a crash under the truncation model.
	frameCorrupt
)

// readFrame decodes the frame at data[off:]. On frameOK it returns the
// payload (aliasing data) and the offset past the frame.
func readFrame(data []byte, off int) (payload []byte, next int, res frameResult) {
	if len(data)-off < frameHeader {
		return nil, off, frameTorn
	}
	plen := int(binary.LittleEndian.Uint32(data[off:]))
	if plen > maxFrame || plen > len(data)-off-frameHeader {
		return nil, off, frameTorn
	}
	want := binary.LittleEndian.Uint32(data[off+4:])
	payload = data[off+frameHeader : off+frameHeader+plen]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, off, frameCorrupt
	}
	return payload, off + frameHeader + plen, frameOK
}

// decodeRecord parses a record payload produced by appendFrame.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) < recFixed {
		return Record{}, fmt.Errorf("wal: record payload too short (%d bytes)", len(payload))
	}
	var r Record
	r.Seq = binary.LittleEndian.Uint64(payload[0:])
	r.TS = binary.LittleEndian.Uint64(payload[8:])
	r.Shard = binary.LittleEndian.Uint32(payload[16:])
	flags := payload[20]
	klen := int(binary.LittleEndian.Uint32(payload[21:]))
	vlen := int(binary.LittleEndian.Uint32(payload[25:]))
	if recFixed+klen+vlen != len(payload) {
		return Record{}, fmt.Errorf("wal: record length mismatch (klen=%d vlen=%d payload=%d)",
			klen, vlen, len(payload))
	}
	r.Del = flags&flagDel != 0
	r.TxnCont = flags&flagTxnCont != 0
	r.Key = string(payload[recFixed : recFixed+klen])
	r.Value = string(payload[recFixed+klen:])
	return r, nil
}
