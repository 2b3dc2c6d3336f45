package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cadb/internal/bufferpool"
)

// TestSegmentWriterMatchesBuildSegment streams rows through the chunked
// writer in awkward batch sizes and checks the resulting file is
// byte-identical to WriteSegmentFile over a whole-slice BuildSegment — the
// property that makes out-of-core builds interchangeable with in-memory
// ones.
func TestSegmentWriterMatchesBuildSegment(t *testing.T) {
	s, rows, seg := testSegment(t, 3000)
	dir := t.TempDir()
	wholePath := filepath.Join(dir, "whole.cadb")
	sf, err := WriteSegmentFile(wholePath, seg)
	if err != nil {
		t.Fatal(err)
	}
	sf.Close()

	for _, chunk := range []int{1, 7, 64, 501, 3000} {
		chunkPath := filepath.Join(dir, "chunked.cadb")
		w, err := NewSegmentWriter(chunkPath, s, plainCodec{})
		if err != nil {
			t.Fatal(err)
		}
		for at := 0; at < len(rows); at += chunk {
			end := at + chunk
			if end > len(rows) {
				end = len(rows)
			}
			if err := w.Append(rows[at:end]); err != nil {
				t.Fatal(err)
			}
		}
		pool := bufferpool.New(1 << 20)
		cseg, err := w.Finish(pool)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := os.ReadFile(wholePath)
		if err != nil {
			t.Fatal(err)
		}
		chunked, err := os.ReadFile(chunkPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole, chunked) {
			t.Fatalf("chunk size %d: chunked file differs from whole-slice file (%d vs %d bytes)",
				chunk, len(chunked), len(whole))
		}
		if cseg.Rows() != seg.Rows() || cseg.NumPages() != seg.NumPages() ||
			cseg.DiskBytes() != seg.DiskBytes() || cseg.PayloadBytes() != seg.PayloadBytes() {
			t.Fatalf("chunk size %d: segment metadata differs", chunk)
		}
		// The returned segment must serve pages through the pool.
		got := scanAll(t, cseg, nil)
		if len(got) != len(rows) || got[0][0].Int != rows[0][0].Int {
			t.Fatalf("chunk size %d: scan through pool wrong", chunk)
		}
		if pool.Stats().Misses == 0 {
			t.Fatalf("chunk size %d: scan did not go through the pool", chunk)
		}
		// No spool left behind.
		if _, err := os.Stat(chunkPath + ".spool"); !os.IsNotExist(err) {
			t.Fatalf("chunk size %d: spool file left behind", chunk)
		}
		cseg.CloseBacking()
	}
}

// TestSegmentWriterBoundedMemory checks the writer retains at most a tail
// page of rows between Appends.
func TestSegmentWriterBoundedMemory(t *testing.T) {
	s := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindString, FixedWidth: 40},
		Column{Name: "val", Kind: KindFloat},
	)
	w, err := NewSegmentWriter(filepath.Join(t.TempDir(), "seg.cadb"), s, plainCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	batch := make([]Row, 512)
	for i := range batch {
		batch[i] = Row{IntVal(int64(i)), StringVal("row-padding-padding-padding"), FloatVal(1.5)}
	}
	rowsPerPage := 0
	for i := 0; i < 20; i++ {
		if err := w.Append(batch); err != nil {
			t.Fatal(err)
		}
		if rowsPerPage == 0 && len(w.pages) > 0 {
			rowsPerPage = w.pages[0].Rows
		}
		if rowsPerPage > 0 && len(w.pending) > rowsPerPage {
			t.Fatalf("after append %d: %d rows pending, page holds %d", i, len(w.pending), rowsPerPage)
		}
	}
	if w.Rows() != 20*512 {
		t.Fatalf("Rows() = %d", w.Rows())
	}
}

// allPages is the visit order of a full scan.
func allPages(seg *Segment) []int {
	plan := make([]int, seg.NumPages())
	for i := range plan {
		plan[i] = i
	}
	return plan
}

// TestPrefetcherWarmsScan runs readahead over a spilled segment and checks a
// following serial scan sees hits for prefetched pages, with the prefetch
// accounted in PoolPrefetched/BytesRead and no stale or wrong bytes.
func TestPrefetcherWarmsScan(t *testing.T) {
	_, rows, seg := testSegment(t, 2000)
	pool := bufferpool.New(1 << 20) // everything fits
	if err := seg.Spill(filepath.Join(t.TempDir(), "seg.cadb"), pool); err != nil {
		t.Fatal(err)
	}
	var io IOStats
	pf := StartPrefetchPlan(seg, allPages(seg), 4, 2)
	if pf == nil {
		t.Fatal("prefetcher should start for a backed segment")
	}
	// Drive the readahead to completion before scanning so the outcome is
	// deterministic: every page becomes resident via prefetch alone (in
	// production the scan races the workers and splits between hit and miss).
	for pool.Bytes() < seg.DiskBytes() {
		for i := 0; i < seg.NumPages(); i++ {
			pf.Advance(i)
		}
		time.Sleep(time.Millisecond)
	}
	got := scanAll(t, seg, &io)
	pf.Close(&io)
	if len(got) != len(rows) {
		t.Fatalf("scan with prefetch returned %d rows, want %d", len(got), len(rows))
	}
	for i := range got {
		if got[i][0].Int != rows[i][0].Int {
			t.Fatalf("row %d differs under prefetch", i)
		}
	}
	if io.PoolPrefetched != int64(seg.NumPages()) {
		t.Fatalf("prefetched %d pages, want all %d", io.PoolPrefetched, seg.NumPages())
	}
	if io.PoolHits != int64(seg.NumPages()) || io.PoolMisses != 0 {
		t.Fatalf("scan after full readahead: %d hits %d misses, want %d/0",
			io.PoolHits, io.PoolMisses, seg.NumPages())
	}
	// Every byte was read exactly once, whether by miss or prefetch.
	if io.BytesRead != seg.DiskBytes() {
		t.Fatalf("read %d bytes, want %d", io.BytesRead, seg.DiskBytes())
	}
	seg.CloseBacking()
}

// TestPrefetchRacesCloseBacking closes the backing while prefetch workers
// are mid-flight; nothing stale may remain in the pool and the prefetcher
// must drain cleanly.
func TestPrefetchRacesCloseBacking(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		_, _, seg := testSegment(t, 2000)
		pool := bufferpool.New(1 << 20)
		if err := seg.Spill(filepath.Join(t.TempDir(), "seg.cadb"), pool); err != nil {
			t.Fatal(err)
		}
		pf := StartPrefetchPlan(seg, allPages(seg), 8, 3)
		pf.Advance(0)
		seg.CloseBacking()
		pf.Advance(4) // advancing after close must be harmless
		pf.Close(nil)
		if pool.Bytes() != 0 {
			t.Fatalf("iter %d: %d stale bytes resident after CloseBacking", iter, pool.Bytes())
		}
		if _, _, err := seg.FetchPage(0, nil); err == nil {
			t.Fatalf("iter %d: fetch after CloseBacking succeeded", iter)
		}
	}
}

// TestPrefetchDisabledCases pins the no-op paths: nil segment, in-memory
// segment, zero window or workers.
func TestPrefetchDisabledCases(t *testing.T) {
	_, _, seg := testSegment(t, 100)
	if pf := StartPrefetchPlan(nil, []int{0}, 4, 2); pf != nil {
		t.Fatal("nil segment should not start a prefetcher")
	}
	if pf := StartPrefetchPlan(seg, allPages(seg), 4, 2); pf != nil {
		t.Fatal("in-memory segment should not start a prefetcher")
	}
	pool := bufferpool.New(1 << 20)
	if err := seg.Spill(filepath.Join(t.TempDir(), "seg.cadb"), pool); err != nil {
		t.Fatal(err)
	}
	if pf := StartPrefetchPlan(seg, allPages(seg), 0, 2); pf != nil {
		t.Fatal("zero window should disable prefetch")
	}
	if pf := StartPrefetchPlan(seg, allPages(seg), 4, 0); pf != nil {
		t.Fatal("zero workers should disable prefetch")
	}
	var nilPF *Prefetcher
	nilPF.Advance(0) // nil receiver is a no-op
	nilPF.Close(nil)
	seg.CloseBacking()
}
