package compress

import (
	"bytes"
	"math/rand"
	"testing"

	"cadb/internal/storage"
)

// internReference numbers keys the way internTable must: first occurrence
// first, through a plain Go map.
type internReference struct {
	ids  map[string]int32
	keys []string
}

func (r *internReference) intern(key []byte) (int32, bool) {
	if id, ok := r.ids[string(key)]; ok {
		return id, false
	}
	id := int32(len(r.keys))
	r.ids[string(key)] = id
	r.keys = append(r.keys, string(key))
	return id, true
}

// assertInternsLikeReference interns the keys into t and into a fresh
// reference, requiring the same id and freshness for every key, the same
// bytes back for every id, and one hash per key.
func assertInternsLikeReference(tb testing.TB, label string, t *internTable, keys [][]byte) {
	tb.Helper()
	ref := internReference{ids: make(map[string]int32)}
	hashed := t.hashed
	for i, k := range keys {
		gotID, gotFresh := t.intern(k)
		wantID, wantFresh := ref.intern(k)
		if gotID != wantID || gotFresh != wantFresh {
			tb.Fatalf("%s: key %d %q: id %d fresh %v, reference %d %v", label, i, k, gotID, gotFresh, wantID, wantFresh)
		}
	}
	if t.len() != len(ref.keys) {
		tb.Fatalf("%s: %d distinct keys, reference %d", label, t.len(), len(ref.keys))
	}
	for id, want := range ref.keys {
		if got := t.key(int32(id)); string(got) != want {
			tb.Fatalf("%s: id %d holds %q, reference %q", label, id, got, want)
		}
	}
	for id, got := range t.strings() {
		if got != ref.keys[id] {
			tb.Fatalf("%s: strings()[%d] = %q, reference %q", label, id, got, ref.keys[id])
		}
	}
	if n := t.hashed - hashed; n != len(keys) {
		tb.Fatalf("%s: %d hashes for %d keys", label, n, len(keys))
	}
}

// randomKeys draws n keys from a pool of distinct random byte strings (lengths
// 0 to maxLen), so keys repeat.
func randomKeys(rng *rand.Rand, n, pool, maxLen int) [][]byte {
	distinct := make([][]byte, pool)
	for i := range distinct {
		distinct[i] = make([]byte, rng.Intn(maxLen+1))
		rng.Read(distinct[i])
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = distinct[rng.Intn(pool)]
	}
	return out
}

// TestInternMatchesReference holds the intern table to a map-based
// numbering: random keys, the zero-length key (int 0 and float +0 encode to
// no bytes), keys that are prefixes of one another, growth past several
// doublings, and reset and reuse.
func TestInternMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var tab internTable

	// The zero-length key is a key like any other, first or later.
	empty := valueBytes(storage.Column{Kind: storage.KindInt}, storage.IntVal(0), nil)
	plusZero := valueBytes(storage.Column{Kind: storage.KindFloat}, storage.FloatVal(0), nil)
	if len(empty) != 0 || len(plusZero) != 0 {
		t.Fatalf("int 0 encodes to %d bytes and float +0 to %d, want none", len(empty), len(plusZero))
	}
	assertInternsLikeReference(t, "empty", &tab, [][]byte{empty, []byte("a"), plusZero, {0}, empty})

	// Every prefix of one string, longest first and then shortest first, with
	// repeats: a key must never match a longer or shorter neighbour.
	long := []byte("prefix-of-prefix-of-prefix")
	var prefixes [][]byte
	for n := len(long); n >= 0; n-- {
		prefixes = append(prefixes, long[:n])
	}
	for n := 0; n <= len(long); n++ {
		prefixes = append(prefixes, long[:n])
	}
	tab.reset()
	assertInternsLikeReference(t, "prefixes", &tab, prefixes)

	// 20 000 distinct keys from 16 slots: ten doublings.
	tab.reset()
	assertInternsLikeReference(t, "growth", &tab, randomKeys(rng, 60000, 20000, 12))
	if len(tab.slots) < 1<<14 {
		t.Fatalf("%d slots after 20 000 keys: the table did not grow", len(tab.slots))
	}

	// Reset keeps the memory and forgets the keys, small and large in turn.
	slots := len(tab.slots)
	for round := 0; round < 6; round++ {
		tab.reset()
		if tab.len() != 0 {
			t.Fatalf("round %d: %d keys after reset", round, tab.len())
		}
		pool := 5 + round*700
		assertInternsLikeReference(t, "reuse", &tab, randomKeys(rng, 3*pool, pool, 1+round*3))
	}
	if len(tab.slots) != slots {
		t.Fatalf("reuse changed the slot array from %d to %d entries", slots, len(tab.slots))
	}

	// A fresh table's ids do not depend on its seed.
	keys := randomKeys(rng, 5000, 900, 6)
	var a, b internTable
	for _, k := range keys {
		ida, _ := a.intern(k)
		idb, _ := b.intern(k)
		if ida != idb {
			t.Fatalf("two tables numbered %q %d and %d", k, ida, idb)
		}
	}
	if !bytes.Equal(a.arena, b.arena) {
		t.Fatal("two tables laid out the same keys differently")
	}
}

// TestInternKeepsItsOwnCopy: the table copies a new key, so a caller may
// reuse its buffer.
func TestInternKeepsItsOwnCopy(t *testing.T) {
	var tab internTable
	buf := []byte("first")
	tab.intern(buf)
	copy(buf, "XXXXX")
	if got := string(tab.key(0)); got != "first" {
		t.Fatalf("key 0 reads %q after its buffer was overwritten", got)
	}
	if id, fresh := tab.intern([]byte("first")); id != 0 || fresh {
		t.Fatalf("re-interning the first key gave id %d fresh %v", id, fresh)
	}
}
