// Package bufferpool provides a fixed-capacity page buffer pool with
// pin/unpin semantics and CLOCK eviction. It is the memory boundary of the
// disk-backed segment path: every page payload a query touches is fetched
// through a pool, so the bytes resident at any instant are bounded by the
// configured capacity and the hit/miss counters turn the paper's
// cache-residency argument — compression keeps more of the working set
// resident — into a directly measured quantity.
//
// Loads happen outside the pool mutex: a Get that misses installs a loading
// placeholder, releases the lock, reads the page, and admits it afterwards.
// Concurrent Gets for the same page wait on the one in-flight load
// (singleflight), so a page is never read from disk twice concurrently and
// pool traffic for other pages proceeds during the read. Counters stay exact:
// every Get is classified exactly once (the load initiator counts the miss,
// waiters count hits), so Hits+Misses == Gets at any observation point.
//
// The pool is deterministic under single-threaded use: the same sequence of
// Get/Unpin calls produces the same hits, misses and evictions on every run
// (CLOCK state advances only on those calls, never on a timer), so
// differential tests over pool-backed execution stay byte-identical. All
// methods are safe for concurrent use; under concurrency the counters remain
// exact even though interleaving is scheduler-dependent.
package bufferpool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Key identifies one page of one registered backing file.
type Key struct {
	File uint64
	Page int
}

// Stats are the pool's cumulative counters.
type Stats struct {
	// Gets counts Get calls (successful or not). Always Hits + Misses.
	Gets int64
	// Hits counts Get calls served from a resident frame or joined onto an
	// in-flight load.
	Hits int64
	// Misses counts Get calls that had to initiate a load.
	Misses int64
	// Evictions counts frames dropped to make room.
	Evictions int64
	// BytesRead is the total payload bytes loaded from disk (misses and
	// prefetches).
	BytesRead int64
	// PeakBytes is the high-water mark of resident payload bytes; it never
	// exceeds the configured capacity (admission fails instead).
	PeakBytes int64
	// Prefetched counts speculative loads initiated by Prefetch (resident or
	// in-flight pages are not re-fetched and not counted).
	Prefetched int64
	// PrefetchWasted counts prefetched pages that left the pool (evicted,
	// invalidated, or never admitted) without ever serving a Get.
	PrefetchWasted int64
	// PinnedFrames and PinnedBytes are point-in-time (not cumulative): the
	// frames currently pinned and their payload bytes at the moment of the
	// Stats call. In a quiesced pool (no Get in flight, every fetch
	// released) both must be zero — a nonzero value is the runtime
	// signature of a leaked pin, the same bug the cadb-lint release check
	// flags statically. Leaked pins are permanent: the frame can never be
	// evicted, so the pool's effective capacity shrinks by PinnedBytes.
	PinnedFrames int64
	PinnedBytes  int64
}

// frame is one resident or loading page.
type frame struct {
	key  Key
	data []byte
	pins int
	ref  bool // CLOCK reference bit: set on hit, cleared by the sweeping hand
	dead bool // invalidated while pinned or loading; freed on the last Unpin

	// Loading state: a frame with loading=true is a placeholder — it is in
	// the frame table (so concurrent Gets find it) but not in the ring (it
	// holds no bytes yet). loadDone is closed when the load settles; waiters
	// then read loadErr/data. waiters counts the Gets that joined; the loader
	// admits the frame already carrying their pins so the frame cannot be
	// evicted between admission and wake-up.
	loading  bool
	loadDone chan struct{}
	loadErr  error
	waiters  int

	// prefetched marks a speculatively loaded frame that has not served a
	// Get yet; cleared on first hit, counted wasted if it leaves still set.
	prefetched bool
}

// Pool is a fixed-capacity page cache. Get pins a page (loading it on a
// miss), Unpin releases it; unpinned pages stay resident until the CLOCK
// hand evicts them for space. Pinned pages are never evicted.
type Pool struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	frames   map[Key]*frame
	ring     []*frame // CLOCK order (admission order, hand wraps)
	hand     int
	stats    Stats
	nextFile atomic.Uint64
}

// New creates a pool holding at most capacityBytes of page payloads. The
// capacity must admit the largest page that will be fetched through it (one
// 8 KB page plus overflow runs); Get fails otherwise.
func New(capacityBytes int64) *Pool {
	if capacityBytes < 1 {
		capacityBytes = 1
	}
	return &Pool{
		capacity: capacityBytes,
		frames:   make(map[Key]*frame),
	}
}

// RegisterFile allocates a fresh file identity for keys. Identities are never
// reused, so frames of an invalidated file can never be hit again even if a
// replacement file is registered for the same on-disk path.
func (p *Pool) RegisterFile() uint64 { return p.nextFile.Add(1) }

// Capacity returns the configured byte capacity.
func (p *Pool) Capacity() int64 { return p.capacity }

// Bytes returns the currently resident payload bytes (including pinned
// frames awaiting invalidation).
func (p *Pool) Bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// Stats returns a snapshot of the counters. The snapshot is internally
// consistent: Gets == Hits + Misses holds at every observation point, even
// while loads are in flight on other goroutines. PinnedFrames/PinnedBytes
// describe the instant of the call — the pool's leak diagnostic.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	for _, f := range p.ring {
		if f.pins > 0 {
			s.PinnedFrames++
			s.PinnedBytes += int64(len(f.data))
		}
	}
	return s
}

// countGet classifies one Get under the lock. hit=false is the load
// initiator.
func (p *Pool) countGet(hit bool) {
	p.stats.Gets++
	if hit {
		p.stats.Hits++
	} else {
		p.stats.Misses++
	}
}

// Get returns the page's payload, pinned: the caller must Unpin the same key
// exactly once when done with the bytes (they may be evicted afterwards). On
// a miss, load is called (outside the pool lock) to produce the payload and
// the frame is admitted, evicting unpinned frames CLOCK-wise as needed; if
// pinned frames leave no room the Get fails rather than overshooting the
// capacity. Concurrent Gets for the same page share one load.
func (p *Pool) Get(k Key, load func() ([]byte, error)) (data []byte, hit bool, err error) {
	p.mu.Lock()
	if f, ok := p.frames[k]; ok {
		if !f.loading {
			f.pins++
			f.ref = true
			f.prefetched = false
			p.countGet(true)
			p.mu.Unlock()
			return f.data, true, nil
		}
		// Join the in-flight load: the loader admits the frame carrying this
		// waiter's pin, so the bytes cannot be evicted before we wake.
		f.waiters++
		f.prefetched = false
		p.countGet(true)
		done := f.loadDone
		p.mu.Unlock()
		<-done
		if f.loadErr != nil {
			return nil, true, f.loadErr
		}
		return f.data, true, nil
	}
	// Miss: install a loading placeholder and read outside the lock.
	f := &frame{key: k, loading: true, loadDone: make(chan struct{})}
	p.frames[k] = f
	p.countGet(false)
	p.mu.Unlock()

	data, err = load()

	p.mu.Lock()
	err = p.settleLoad(f, data, err, 1)
	p.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	return f.data, false, nil
}

// Prefetch speculatively loads the page into the pool, unpinned, so a later
// sequential Get hits instead of stalling on disk. Resident or in-flight
// pages are left alone (no counter movement). The load happens outside the
// lock; a Get arriving meanwhile joins it as a waiter exactly as with a
// missed Get. Prefetch failures are silent (the page simply stays cold) —
// the error return reports them for accounting only. Returns the bytes
// loaded (0 when the page was already resident or loading).
func (p *Pool) Prefetch(k Key, load func() ([]byte, error)) (loaded int64, err error) {
	p.mu.Lock()
	if _, ok := p.frames[k]; ok {
		p.mu.Unlock()
		return 0, nil
	}
	f := &frame{key: k, loading: true, loadDone: make(chan struct{}), prefetched: true}
	p.frames[k] = f
	p.stats.Prefetched++
	p.mu.Unlock()

	data, err := load()

	p.mu.Lock()
	err = p.settleLoad(f, data, err, 0)
	if err != nil && f.prefetched {
		// Never admitted: loaded (or attempted) for nothing.
		p.stats.PrefetchWasted++
	}
	p.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// settleLoad resolves a loading placeholder under the lock: on success the
// frame is admitted with ownPins + waiter pins (ownPins 0 for prefetch —
// such frames start unpinned and evictable); on failure, or when the frame
// was invalidated mid-load, the placeholder is removed and the error is
// published to every waiter. Always closes loadDone.
func (p *Pool) settleLoad(f *frame, data []byte, err error, ownPins int) error {
	defer close(f.loadDone)
	if err == nil && f.dead {
		err = fmt.Errorf("bufferpool: page %v invalidated during load", f.key)
	}
	if err == nil {
		need := int64(len(data))
		if need > p.capacity {
			err = fmt.Errorf("bufferpool: page of %d bytes exceeds pool capacity %d", need, p.capacity)
		} else {
			for p.bytes+need > p.capacity {
				if !p.evictOne() {
					err = fmt.Errorf("bufferpool: cannot admit %d bytes: %d of %d capacity pinned", need, p.bytes, p.capacity)
					break
				}
			}
		}
		if err == nil {
			p.stats.BytesRead += need
			f.loading = false
			f.data = data
			f.pins = ownPins + f.waiters
			f.ref = true
			p.ring = append(p.ring, f)
			p.bytes += need
			if p.bytes > p.stats.PeakBytes {
				p.stats.PeakBytes = p.bytes
			}
			return nil
		}
	}
	f.loadErr = err
	// Drop the placeholder so the next Get retries the load — unless
	// invalidation already removed it (or a newer frame took the key).
	if cur, ok := p.frames[f.key]; ok && cur == f {
		delete(p.frames, f.key)
	}
	return err
}

// Unpin releases one pin on the page. Unpinning a key that is not resident
// (already invalidated and freed) is a no-op.
func (p *Pool) Unpin(k Key) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[k]
	if !ok || f.loading {
		// The frame may be a dead one (invalidated while pinned): it is no
		// longer reachable by key, find it in the ring.
		f = nil
		for _, rf := range p.ring {
			if rf.key == k && rf.dead && rf.pins > 0 {
				f = rf
				break
			}
		}
		if f == nil {
			return
		}
	}
	if f.pins > 0 {
		f.pins--
	}
	if f.dead && f.pins == 0 {
		p.dropFrame(f)
	}
}

// InvalidateFile drops every frame belonging to the file: resident unpinned
// frames are freed immediately, pinned ones are marked dead (unreachable for
// future Gets, freed on their last Unpin), and in-flight loads are poisoned —
// their loader discards the bytes instead of admitting them. Callers
// invalidate after a write made the backing file stale, so a later Get must
// reload, never serve old bytes.
func (p *Pool) InvalidateFile(file uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Loading placeholders are only in the frame table, not the ring.
	for k, f := range p.frames {
		if k.File != file || !f.loading || f.dead {
			continue
		}
		f.dead = true
		delete(p.frames, k)
		if f.prefetched {
			p.stats.PrefetchWasted++
			f.prefetched = false
		}
	}
	for _, f := range append([]*frame(nil), p.ring...) {
		if f.key.File != file || f.dead {
			continue
		}
		delete(p.frames, f.key)
		f.dead = true
		if f.prefetched {
			p.stats.PrefetchWasted++
			f.prefetched = false
		}
		if f.pins == 0 {
			p.dropFrame(f)
		}
	}
}

// evictOne runs the CLOCK hand until it finds an unpinned, unreferenced
// frame to drop. Referenced frames get their bit cleared and a second
// chance; pinned frames are skipped. Returns false when every frame is
// pinned.
func (p *Pool) evictOne() bool {
	if len(p.ring) == 0 {
		return false
	}
	// Two full sweeps suffice: the first clears reference bits, the second
	// must find a victim unless everything is pinned.
	for pass := 0; pass < 2*len(p.ring); pass++ {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		f := p.ring[p.hand]
		if f.pins > 0 {
			p.hand++
			continue
		}
		if f.ref {
			f.ref = false
			p.hand++
			continue
		}
		delete(p.frames, f.key)
		p.dropFrame(f)
		p.stats.Evictions++
		return true
	}
	return false
}

// dropFrame removes the frame from the ring and releases its bytes. The hand
// is adjusted so it keeps pointing at the same successor.
func (p *Pool) dropFrame(f *frame) {
	for i, rf := range p.ring {
		if rf == f {
			p.ring = append(p.ring[:i], p.ring[i+1:]...)
			if p.hand > i {
				p.hand--
			}
			break
		}
	}
	if f.prefetched {
		p.stats.PrefetchWasted++
		f.prefetched = false
	}
	p.bytes -= int64(len(f.data))
	f.data = nil
}
