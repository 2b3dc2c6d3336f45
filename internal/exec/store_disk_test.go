package exec

import (
	"fmt"
	"testing"
	"time"

	"cadb/internal/bufferpool"
	"cadb/internal/compress"
	"cadb/internal/datagen"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// TestDiskStoreMatchesOracleTPCH extends the differential sweep through the
// disk-backed path: the full TPC-H update-capable workload, every statement
// byte-identical to the plain-row oracle, at a pool large enough to hold the
// working set and at one small enough to churn constantly — with and without
// readahead, because prefetch must never change what a statement returns,
// including after writes invalidate and rebuild segments mid-sweep.
func TestDiskStoreMatchesOracleTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	cfg := datagen.TPCHConfig{LineitemRows: 4000, Seed: 11}
	knobs := []struct {
		name            string
		window, workers int
	}{
		{"serial", 0, 0},
		{"prefetch", 8, 2},
	}
	for _, poolBytes := range []int64{64 << 10, 64 << 20} {
		for _, defs := range [][]*index.Def{nil, tpchDesign()} {
			for _, k := range knobs {
				oracleDB := datagen.NewTPCH(cfg)
				storeDB := datagen.NewTPCH(cfg)
				st, err := NewStore(storeDB, defs)
				if err != nil {
					t.Fatal(err)
				}
				pool := bufferpool.New(poolBytes)
				st.SetDiskBacked(t.TempDir(), pool)
				st.SetPrefetch(k.window, k.workers)
				runDifferential(t, oracleDB, st, workloads.MustTPCHWithUpdates())
				if pool.Stats().PeakBytes > poolBytes {
					t.Fatalf("%s: pool peak %d exceeds capacity %d", k.name, pool.Stats().PeakBytes, poolBytes)
				}
				if pool.Stats().Misses == 0 {
					t.Fatalf("%s: disk-backed sweep never missed — pages are not going through the pool", k.name)
				}
				st.Close()
			}
		}
	}
}

// TestDiskStoreOneMissPerPage pins the exact-count regression: a full table
// scan with the pool at least as large as the segment incurs exactly one miss
// per page, and a repeat of the same scan hits on every page.
func TestDiskStoreOneMissPerPage(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 5})
	st, err := NewStore(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(64 << 20) // far larger than the working set
	st.SetDiskBacked(t.TempDir(), pool)
	defer st.Close()

	// Non-sargable shape: always a full heap scan.
	query := q(t, "SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode")
	cold, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	heap := st.tables["lineitem"][0].si.Seg
	if !heap.Backed() {
		t.Fatal("heap segment is not disk-backed")
	}
	if cold.IO.PoolMisses != int64(heap.NumPages()) || cold.IO.PoolHits != 0 {
		t.Fatalf("cold scan: %d misses %d hits, want exactly %d/0",
			cold.IO.PoolMisses, cold.IO.PoolHits, heap.NumPages())
	}
	if cold.IO.BytesRead != heap.DiskBytes() {
		t.Fatalf("cold scan read %d bytes, segment holds %d", cold.IO.BytesRead, heap.DiskBytes())
	}
	warm, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	if warm.IO.PoolHits != int64(heap.NumPages()) || warm.IO.PoolMisses != 0 || warm.IO.BytesRead != 0 {
		t.Fatalf("warm scan: %d hits %d misses %d bytes, want %d/0/0",
			warm.IO.PoolHits, warm.IO.PoolMisses, warm.IO.BytesRead, heap.NumPages())
	}
	assertResultsIdentical(t, "warm-vs-cold", warm, cold)
}

// TestDiskStoreStaleFrameGuard pins the invalidation satellite: after a
// write, the old segment's pool frames are dropped and a reader still holding
// that segment errors instead of seeing pre-write pages, while fresh queries
// rebuild and match the oracle. Prefetch is on: the guard must hold when
// frames entered the pool speculatively and the write lands while readahead
// workers exist.
func TestDiskStoreStaleFrameGuard(t *testing.T) {
	cfg := datagen.TPCHConfig{LineitemRows: 2000, Seed: 13}
	oracleDB := datagen.NewTPCH(cfg)
	storeDB := datagen.NewTPCH(cfg)
	st, err := NewStore(storeDB, tpchDesign())
	if err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(64 << 20)
	st.SetDiskBacked(t.TempDir(), pool)
	st.SetPrefetch(8, 2)
	defer st.Close()

	query := q(t, "SELECT COUNT(*) FROM lineitem WHERE l_quantity <= 10")
	if _, err := st.RunQuery(query); err != nil {
		t.Fatal(err)
	}
	oldSeg := st.tables["lineitem"][0].si.Seg // the clustered structure: lineitem's base
	resident := pool.Bytes()
	if resident == 0 {
		t.Fatal("nothing resident after a scan")
	}

	del := &workload.Delete{Table: "lineitem", Preds: []workload.Predicate{
		{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(10)},
	}}
	wantN, err := RunDelete(oracleDB, del)
	if err != nil {
		t.Fatal(err)
	}
	gotN, _, err := st.RunDelete(del)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN || gotN == 0 {
		t.Fatalf("deleted %d, oracle %d", gotN, wantN)
	}

	// The old segment must refuse page fetches — a stale cursor cannot read
	// pre-write pages back out of the pool.
	if _, _, err := oldSeg.FetchPage(0, nil); err == nil {
		t.Fatal("stale segment served a page after invalidation")
	}
	after, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	wantAfter, err := Run(oracleDB, query)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "after-delete", after, wantAfter)
}

// TestDiskStorePrefetchRacesWrites interleaves scans (with readahead workers
// in flight) against writes at randomized offsets, in three arms:
//   - an UPDATE of the key column of the secondary the racing scan holds,
//     and a DELETE: both invalidate that segment. The racing reader must
//     either finish with exactly the pre-write rows — the spill file is
//     immutable until invalidation removes it — or fail; it must never
//     surface stale or torn bytes, and after the write the old segment must
//     refuse every fetch.
//   - an UPDATE of a column no structure is keyed on, racing a scan of the
//     heap that reads it: the heap takes an overlay and keeps its pages, so
//     the scan, which opened before the write, returns exactly the pre-write
//     rows, the segment still serves its pages, and the store's next read
//     matches the oracle.
//
// Run under -race this also proves the prefetcher/invalidation shutdown
// protocol is data-race free.
func TestDiskStorePrefetchRacesWrites(t *testing.T) {
	cfg := datagen.TPCHConfig{LineitemRows: 3000, Seed: 21}
	oracleDB := datagen.NewTPCH(cfg)
	storeDB := datagen.NewTPCH(cfg)
	st, err := NewStore(storeDB, []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_tax"}, IncludeCols: []string{"l_shipmode"}, Method: compress.Page},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Smaller than the segment so prefetch admission and eviction churn while
	// the race runs.
	pool := bufferpool.New(256 << 10)
	st.SetDiskBacked(t.TempDir(), pool)
	st.SetPrefetch(8, 2)
	defer st.Close()

	query := q(t, "SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode")
	discounts := q(t, "SELECT l_discount, COUNT(*) FROM lineitem WHERE l_quantity <= 20 GROUP BY l_discount")
	discount := storeDB.MustTable("lineitem").Schema.ColIndex("l_discount")
	for iter := 0; iter < 12; iter++ {
		// Build (or rebuild) every segment and keep a handle a racing reader
		// would hold across the write: the secondary, whose column 0 is its
		// key l_tax, or, in the overlay arm, the heap's l_discount.
		if _, err := st.RunQuery(query); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := st.ensureBuilt(st.all...); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		overlayArm := iter%3 == 2
		si, spec := st.tables["lineitem"][1].si, &storage.DecodeSpec{Needed: []int{0}}
		if overlayArm {
			si, spec = st.tables["lineitem"][0].si, &storage.DecodeSpec{Needed: []int{discount}}
		}

		// Reference: what a scan of the pre-write segment must return.
		var refIO storage.IOStats
		var want []storage.Value
		for c := si.ScanCursor(spec, &refIO); ; {
			b, err := c.NextBatch()
			if err != nil {
				t.Fatalf("iter %d reference: %v", iter, err)
			}
			if b == nil {
				break
			}
			for _, r := range b.Rows {
				want = append(want, r[0])
			}
		}

		type raceResult struct {
			rows []storage.Value
			err  error
		}
		done := make(chan raceResult, 1)
		var io storage.IOStats
		src := si.ScanCursor(spec, &io)
		src.EnablePrefetch(8, 2)
		go func() {
			var rows []storage.Value
			for {
				b, err := src.NextBatch()
				if err != nil {
					done <- raceResult{err: err}
					return
				}
				if b == nil {
					done <- raceResult{rows: rows}
					return
				}
				for _, r := range b.Rows {
					rows = append(rows, r[0])
				}
			}
		}()

		// Vary how deep into the scan the write lands.
		time.Sleep(time.Duration(iter*37%211) * time.Microsecond)
		var gotN, wantN int64
		switch iter % 3 {
		case 0, 2:
			upd := &workload.Update{
				Table: "lineitem",
				Set:   []workload.Assignment{{Col: "l_tax", Value: storage.IntVal(int64(iter))}},
				Preds: []workload.Predicate{{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(30)}},
			}
			if overlayArm {
				upd = &workload.Update{
					Table: "lineitem",
					Set:   []workload.Assignment{{Col: "l_discount", Value: storage.FloatVal(float64(iter) / 100)}},
					Preds: []workload.Predicate{{Col: "l_quantity", Op: workload.OpLe, Lo: storage.IntVal(10)}},
				}
			}
			wantN, err = RunUpdate(oracleDB, upd)
			if err == nil {
				gotN, _, err = st.RunUpdate(upd)
			}
		case 1:
			del := &workload.Delete{Table: "lineitem", Preds: []workload.Predicate{
				{Col: "l_orderkey", Op: workload.OpLe, Lo: storage.IntVal(int64(20 * iter))},
			}}
			wantN, err = RunDelete(oracleDB, del)
			if err == nil {
				gotN, _, err = st.RunDelete(del)
			}
		}
		if err != nil {
			t.Fatalf("iter %d write: %v", iter, err)
		}
		if gotN != wantN {
			t.Fatalf("iter %d: wrote %d rows, oracle wrote %d", iter, gotN, wantN)
		}
		if gotN == 0 {
			t.Fatalf("iter %d: write matched no rows — invalidation never exercised", iter)
		}

		r := <-done
		if overlayArm && r.err != nil {
			t.Fatalf("iter %d: a scan racing an overlaid write failed: %v", iter, r.err)
		}
		if r.err == nil {
			if len(r.rows) != len(want) {
				t.Fatalf("iter %d: racing scan returned %d rows, pre-write segment holds %d",
					iter, len(r.rows), len(want))
			}
			for i := range r.rows {
				if r.rows[i] != want[i] {
					t.Fatalf("iter %d: racing scan row %d is %v, want %v", iter, i, r.rows[i], want[i])
				}
			}
		}
		if overlayArm {
			// The heap took an overlay and kept its pages.
			if heap := st.tables["lineitem"][0]; heap.si != si || heap.stale || si.OverlaidRows() != int(gotN) {
				t.Fatalf("iter %d: the heap did not keep its segment under a %d-row overlay", iter, gotN)
			}
			if _, release, err := si.Seg.FetchPage(0, nil); err != nil {
				t.Fatalf("iter %d: the overlaid segment refused a page: %v", iter, err)
			} else {
				release()
			}
			got, err := st.RunQuery(discounts)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, err := Run(oracleDB, discounts)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, fmt.Sprintf("iter %d, after the overlaid write", iter), got, wantRes)
			continue
		}
		// The write invalidated the old segment: no fetch may succeed again.
		if _, _, err := si.Seg.FetchPage(0, nil); err == nil {
			t.Fatalf("iter %d: stale segment served a page after invalidation", iter)
		}
	}
	// The store and oracle applied identical writes throughout; the rebuilt
	// and overlaid segments must still agree.
	got, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := Run(oracleDB, query)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "after-race-sweep", got, wantRes)
}

// TestDiskStorePoolSwap pins SetPool: after swapping to a fresh pool the
// spill files are reused (results unchanged), the new pool fills, and the old
// pool is left empty.
func TestDiskStorePoolSwap(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 2000, Seed: 3})
	st, err := NewStore(db, tpchDesign())
	if err != nil {
		t.Fatal(err)
	}
	poolA := bufferpool.New(64 << 20)
	st.SetDiskBacked(t.TempDir(), poolA)
	defer st.Close()

	query := q(t, "SELECT l_orderkey FROM lineitem WHERE l_shipdate BETWEEN 9000 AND 9060")
	first, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	poolB := bufferpool.New(64 << 20)
	if err := st.SetPool(poolB); err != nil {
		t.Fatal(err)
	}
	if poolA.Bytes() != 0 {
		t.Fatalf("old pool still holds %d bytes after the swap", poolA.Bytes())
	}
	second, err := st.RunQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "across-pools", second, first)
	if second.IO.PoolMisses == 0 {
		t.Fatal("fresh pool should start cold")
	}
	if poolB.Bytes() == 0 {
		t.Fatal("new pool stayed empty")
	}
}

// TestDiskStorePeakBounded runs a churny workload through a pool much smaller
// than the working set and checks resident bytes never exceeded the cap.
func TestDiskStorePeakBounded(t *testing.T) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: 3000, Seed: 9})
	st, err := NewStore(db, []*index.Def{
		{Table: "lineitem", KeyCols: []string{"l_shipdate"}, Clustered: true, Method: compress.None},
	})
	if err != nil {
		t.Fatal(err)
	}
	const capBytes = 48 << 10 // a handful of pages
	pool := bufferpool.New(capBytes)
	st.SetDiskBacked(t.TempDir(), pool)
	defer st.Close()

	for _, sql := range []string{
		"SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode",
		"SELECT l_orderkey FROM lineitem WHERE l_shipdate BETWEEN 8200 AND 8600",
		"SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity <= 20 GROUP BY l_returnflag",
	} {
		if _, err := st.RunQuery(q(t, sql)); err != nil {
			t.Fatal(err)
		}
	}
	stats := pool.Stats()
	if stats.PeakBytes > capBytes {
		t.Fatalf("peak %d exceeds configured capacity %d", stats.PeakBytes, capBytes)
	}
	if stats.Evictions == 0 {
		t.Fatalf("working set exceeds the pool; expected evictions, got %+v", stats)
	}
}
