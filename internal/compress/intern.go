package compress

import (
	"bytes"
	"hash/maphash"
)

// internTable numbers distinct byte strings in first-occurrence order without
// a Go string or map entry per key. The keys sit back to back in one byte
// arena; an open-addressing slot array (linear probing, a power of two long,
// at most three quarters full) holds each key's id+1, 0 marking a free slot.
// Ids do not depend on the hash or its seed, so nothing numbered by them
// does. Each intern hashes its key once (growth reinserts by the stored
// hashes), and reset empties the table but keeps its memory, so a table
// reused from page to page stops allocating once it has grown. Offsets and
// ids are int32: one table holds under 2 GiB of keys.
//
// The size model and the codec deduplicate every value by its encoded bytes
// through this one table: the PAGE sizer's page dictionary (whose ids the
// PAGE writer then codes by), the model's GDICT dictionary and the GDICT
// pre-pass.
type internTable struct {
	seed   maphash.Seed
	arena  []byte
	ends   []int32  // id -> end of its key in arena
	hashes []uint64 // id -> hash of its key
	slots  []int32
	hashed int // keys hashed so far, across resets (test budget)
}

// reset empties the table, keeping its memory.
func (t *internTable) reset() {
	t.arena, t.ends, t.hashes = t.arena[:0], t.ends[:0], t.hashes[:0]
	clear(t.slots)
}

// len is the number of distinct keys.
func (t *internTable) len() int { return len(t.ends) }

// key returns id's bytes, a view into the arena valid until the next reset.
func (t *internTable) key(id int32) []byte {
	start := int32(0)
	if id > 0 {
		start = t.ends[id-1]
	}
	return t.arena[start:t.ends[id]]
}

// intern returns the key's id, assigning the next one on first sight, and
// whether this call assigned it. The table keeps its own copy of a new key.
func (t *internTable) intern(key []byte) (int32, bool) {
	if t.slots == nil {
		t.seed = maphash.MakeSeed()
		t.slots = make([]int32, 16)
	}
	t.hashed++
	h := maphash.Bytes(t.seed, key)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if id := t.slots[i] - 1; t.hashes[id] == h && bytes.Equal(t.key(id), key) {
			return id, false
		}
	}
	id := int32(len(t.ends))
	t.arena = append(t.arena, key...)
	t.ends = append(t.ends, int32(len(t.arena)))
	t.hashes = append(t.hashes, h)
	t.slots[i] = id + 1
	if 4*len(t.ends) > 3*len(t.slots) {
		t.grow()
	}
	return id, true
}

// grow doubles the slot array and reinserts every key by its stored hash.
func (t *internTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for id, h := range t.hashes {
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id) + 1
	}
}

// strings returns every key by id, all cut from one string conversion of
// the arena.
func (t *internTable) strings() []string {
	all := string(t.arena)
	out := make([]string, len(t.ends))
	start := int32(0)
	for id, end := range t.ends {
		out[id] = all[start:end]
		start = end
	}
	return out
}
