package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Inline regularity check. Every written value carries (key, seq),
// where seq counts the writes to that key. The harness is the single
// writer of each register: it holds the key's wmu from drawing seq to
// the write's return, so seq order is the register's write order. A
// read of key k is then regular iff the seq it returns is
//
//   - at least the last write to k that completed before the read
//     began (condition 2 of §2.2: no older value than the last
//     preceding write), and
//   - at most the last write to k that had started when the read
//     returned (condition 3: the value was not read before it was
//     written),
//
// and the payload is byte-for-byte the one written (condition 1).
type keyState struct {
	wmu       sync.Mutex
	started   atomic.Int64
	completed atomic.Int64
}

// beginWrite draws the next seq for the key; call with wmu held.
func (k *keyState) beginWrite() int64 { return k.started.Add(1) }

// endWrite marks seq as completed; call with wmu held.
func (k *keyState) endWrite(seq int64) { k.completed.Store(seq) }

// beginRead returns the lower bound a read starting now must respect.
func (k *keyState) beginRead() int64 { return k.completed.Load() }

// checkRead validates a read of key that began at bound lo and
// returned val, and reports the seq it carried.
func (k *keyState) checkRead(key int, lo int64, val []byte, valueBytes int) (int64, error) {
	hi := k.started.Load()
	gotKey, seq, err := decodeValue(val, valueBytes)
	if err != nil {
		return 0, err
	}
	if gotKey != key {
		return seq, fmt.Errorf("read of key %d returned a value written to key %d", key, gotKey)
	}
	if seq < lo {
		return seq, fmt.Errorf("stale read of key %d: returned write %d but write %d completed before the read began", key, seq, lo)
	}
	if seq > hi {
		return seq, fmt.Errorf("future read of key %d: returned write %d but only %d writes had started when it returned", key, seq, hi)
	}
	return seq, nil
}

const valueHeader = 12 // uint32 key + uint64 seq

// encodeValue fills buf (the client's reusable value buffer; the store
// clones what it keeps) with the payload of write seq to key.
func encodeValue(buf []byte, key int, seq int64) {
	binary.LittleEndian.PutUint32(buf, uint32(key))
	binary.LittleEndian.PutUint64(buf[4:], uint64(seq))
	for i := valueHeader; i < len(buf); i++ {
		buf[i] = byte(i) + byte(seq)
	}
}

// decodeValue parses and verifies a payload written by encodeValue.
func decodeValue(val []byte, valueBytes int) (key int, seq int64, err error) {
	if len(val) != valueBytes {
		return 0, 0, fmt.Errorf("value is %d bytes, want %d", len(val), valueBytes)
	}
	key = int(binary.LittleEndian.Uint32(val))
	seq = int64(binary.LittleEndian.Uint64(val[4:]))
	for i := valueHeader; i < len(val); i++ {
		if val[i] != byte(i)+byte(seq) {
			return key, seq, fmt.Errorf("value of key %d write %d is corrupt at byte %d", key, seq, i)
		}
	}
	return key, seq, nil
}
