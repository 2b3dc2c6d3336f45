package compress

import (
	"testing"

	"cadb/internal/storage"
)

// buildFactLike produces rows shaped like a fact table: a sequential key, a
// clustered date, low-cardinality flags, padded CHARs and a float measure.
func buildFactLike(n int) (*storage.Schema, []storage.Row) {
	s := storage.NewSchema(
		storage.Column{Name: "id", Kind: storage.KindInt},
		storage.Column{Name: "day", Kind: storage.KindDate},
		storage.Column{Name: "flag", Kind: storage.KindString, FixedWidth: 1},
		storage.Column{Name: "mode", Kind: storage.KindString, FixedWidth: 10},
		storage.Column{Name: "amount", Kind: storage.KindFloat},
	)
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK"}
	flags := []string{"A", "N", "R"}
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.DateVal(int64(9000 + i/16)),
			storage.StringVal(flags[i%3]),
			storage.StringVal(modes[(i/7)%4]),
			storage.FloatVal(float64(i%997) + 0.25),
		}
	}
	return s, rows
}

// TestGoldenCFOrdering pins the qualitative compression behavior the cost
// model and experiments depend on: every method compresses fact-like data;
// PAGE beats ROW (it subsumes it plus dictionaries); and the CFs stay inside
// the plausible band the paper's Figure 9/Table 2 analysis assumes.
func TestGoldenCFOrdering(t *testing.T) {
	s, rows := buildFactLike(6000)
	cf := map[Method]float64{}
	for _, m := range Methods {
		cf[m] = fraction(t, s, rows, m)
	}
	if cf[Page] >= cf[Row] {
		t.Errorf("PAGE (%.3f) should compress better than ROW (%.3f) here", cf[Page], cf[Row])
	}
	for m, f := range cf {
		if f <= 0.15 || f >= 0.95 {
			t.Errorf("%s: CF %.3f outside the plausible band", m, f)
		}
	}
}

// TestGoldenCFStability: CF must be stable under doubling the data (same
// distribution), since SampleCF's whole premise is that a sample's CF
// transfers to the full index.
func TestGoldenCFStability(t *testing.T) {
	s, small := buildFactLike(3000)
	_, big := buildFactLike(12000)
	for _, m := range Methods {
		a := fraction(t, s, small, m)
		b := fraction(t, s, big, m)
		diff := a - b
		if diff < 0 {
			diff = -diff
		}
		// The sequential id column widens with row count, so allow a
		// modest drift, not more.
		if diff > 0.08 {
			t.Errorf("%s: CF drifted %.3f -> %.3f across scales", m, a, b)
		}
	}
}

// TestGoldenSortOrderSensitivity quantifies the ORD-DEP effect the deduction
// model corrects for: sorting by the low-cardinality column must improve
// PAGE and RLE by a measurable margin and leave ROW/GDICT untouched.
func TestGoldenSortOrderSensitivity(t *testing.T) {
	s, rows := buildFactLike(6000)
	// Sort by mode (low cardinality): long runs per page.
	sorted := make([]storage.Row, len(rows))
	copy(sorted, rows)
	mi := s.ColIndex("mode")
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j][mi].Compare(sorted[j-1][mi]) < 0; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, m := range []Method{Row, GlobalDict} {
		if a, b := sizeRows(t, s, rows, m), sizeRows(t, s, sorted, m); a != b {
			t.Errorf("%s: order changed size (%d vs %d) but method is ORD-IND", m, a, b)
		}
	}
	// On the full schema the re-sort helps mode but fragments id/day, so the
	// only guarantee is order *dependence*: sizes must differ.
	for _, m := range []Method{Page, RLE} {
		if a, b := sizeRows(t, s, rows, m), sizeRows(t, s, sorted, m); a == b {
			t.Errorf("%s: size did not react to tuple order at all", m)
		}
	}
	// The clearest fragmentation signal needs a column whose cardinality
	// exceeds the rows-per-page (so an unclustered page cannot dictionary-
	// compress it): `day` has ~375 distinct values. Generated order keeps
	// days clustered; a round-robin shuffle scatters them.
	proj := s.Project([]string{"day", "flag"})
	di, fi := s.ColIndex("day"), s.ColIndex("flag")
	var clustered, scattered []storage.Row
	for _, r := range rows {
		clustered = append(clustered, storage.Row{r[di], r[fi]})
	}
	stride := 377 // co-prime with len(rows): visits every row, scrambles days
	for i := range rows {
		r := rows[(i*stride)%len(rows)]
		scattered = append(scattered, storage.Row{r[di], r[fi]})
	}
	for _, m := range []Method{Page, RLE} {
		a, b := sizeRows(t, proj, scattered, m), sizeRows(t, proj, clustered, m)
		if float64(b) > 0.9*float64(a) {
			t.Errorf("%s: clustering a dominant column should shrink size clearly: %d -> %d", m, a, b)
		}
	}
}
