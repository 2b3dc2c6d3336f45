package storage

import (
	"sync"
	"sync/atomic"
)

// Prefetcher drives async readahead over one page range of a spilled
// segment. A sequential cursor creates one per scan and calls Advance with
// its current page; the prefetcher keeps a bounded window of pages ahead of
// that frontier in flight on a small worker pool. Contiguous runs of the
// visit order are coalesced into spans of up to MaxPrefetchSpanPages pages,
// each loaded with one large ReadAt via Segment.PrefetchSpan (unpinned
// speculative pool admissions) — so readahead I/O runs at sequential-disk
// bandwidth while the demand path pays per-page latency. The cursor's later
// FetchPage then hits instead of stalling on a serial ReadAt.
//
// Prefetch failures are silent by design: a page that fails to prefetch is
// simply still cold when the cursor reaches it, and the cursor's own fetch
// reports the real error. In particular CloseBacking/InvalidateFile racing a
// prefetch makes the in-flight loads fail (the stale-frame guard poisons
// them), which is exactly the cancellation the guard requires.
//
// Advance must be called from a single goroutine (the cursor's); Close may
// be called once, after which the workers have drained.
type Prefetcher struct {
	seg    *Segment
	plan   []int // pages in visit order; Advance positions index this list
	window int

	queue chan [2]int // coalesced page spans [lo, hi)
	stop  chan struct{}
	wg    sync.WaitGroup

	nextIssue int  // next plan index to schedule (cursor goroutine only)
	closed    bool // Close already ran (cursor goroutine only)

	pages atomic.Int64 // pages actually loaded (not already resident)
	bytes atomic.Int64 // payload bytes those loads read
}

// DefaultPrefetchWindow and DefaultPrefetchWorkers are the knob defaults the
// exec layer applies when prefetch is switched on without explicit sizing:
// a couple of full coalesced spans in flight (2 MB of readahead at 8 KB
// pages), few enough workers that a scan doesn't monopolize the pool.
// MaxPrefetchSpanPages caps how many contiguous pages one worker reads in a
// single coalesced ReadAt (1 MB at full 8 KB pages).
const (
	DefaultPrefetchWindow  = 256
	DefaultPrefetchWorkers = 4
	MaxPrefetchSpanPages   = 128
)

// StartPrefetchPlan launches readahead over an explicit page visit order —
// the form cursors use, since a RID cursor's pages are sparse. Advance
// positions are indexes into the plan, not page numbers. Returns nil when the
// segment is not disk-backed, the plan is empty or the parameters disable
// prefetch (window or workers < 1) — callers treat a nil Prefetcher as a
// no-op.
func StartPrefetchPlan(seg *Segment, plan []int, window, workers int) *Prefetcher {
	if seg == nil || !seg.Backed() || window < 1 || workers < 1 || len(plan) == 0 {
		return nil
	}
	if workers > window {
		workers = window
	}
	pf := &Prefetcher{
		seg:    seg,
		plan:   plan,
		window: window,
		queue:  make(chan [2]int, window),
		stop:   make(chan struct{}),
	}
	pf.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go pf.worker()
	}
	return pf
}

func (pf *Prefetcher) worker() {
	defer pf.wg.Done()
	for {
		select {
		case <-pf.stop:
			return
		case span, ok := <-pf.queue:
			if !ok {
				return
			}
			pages, bytes, err := pf.seg.PrefetchSpan(span[0], span[1])
			if err == nil && pages > 0 {
				pf.pages.Add(int64(pages))
				pf.bytes.Add(bytes)
			}
		}
	}
}

// Advance notifies the prefetcher that the scan is about to consume plan
// position at: pages up to at+window (clamped to the plan end) are
// scheduled, coalescing runs of consecutive page numbers into spans of up to
// MaxPrefetchSpanPages. Issuance is deliberately chunky: once the initial
// window is in flight the frontier advances one position per consumed page,
// and issuing each position individually would degenerate into single-page
// reads — so spans are held back until at least half a max span (capped by
// half the window) is issuable, except at the plan tail. Never blocks — when
// the queue is full the remainder is scheduled on a later Advance, keeping
// the readahead depth bounded even if workers stall.
func (pf *Prefetcher) Advance(at int) {
	if pf == nil || pf.closed {
		return
	}
	target := at + pf.window
	if target > len(pf.plan) {
		target = len(pf.plan)
	}
	minIssue := MaxPrefetchSpanPages / 2
	if w := pf.window / 2; w < minIssue {
		minIssue = w
	}
	if minIssue < 1 {
		minIssue = 1
	}
	for pf.nextIssue < target {
		if target-pf.nextIssue < minIssue && target < len(pf.plan) {
			return
		}
		lo := pf.plan[pf.nextIssue]
		n := 1
		for pf.nextIssue+n < target && n < MaxPrefetchSpanPages && pf.plan[pf.nextIssue+n] == lo+n {
			n++
		}
		select {
		case pf.queue <- [2]int{lo, lo + n}:
			pf.nextIssue += n
		default:
			return
		}
	}
}

// Close stops the workers, waits for in-flight loads to settle, and flushes
// the prefetch accounting into io (PoolPrefetched pages, BytesRead for the
// loaded bytes). Safe on a nil receiver and idempotent (later calls are
// no-ops, so an accounting sink is only honored on the first).
func (pf *Prefetcher) Close(io *IOStats) {
	if pf == nil || pf.closed {
		return
	}
	pf.closed = true
	close(pf.stop)
	pf.wg.Wait()
	if io != nil {
		io.PoolPrefetched += pf.pages.Load()
		io.BytesRead += pf.bytes.Load()
	}
}
