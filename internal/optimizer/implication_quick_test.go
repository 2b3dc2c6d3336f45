package optimizer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cadb/internal/storage"
	"cadb/internal/workload"
)

// randPredicate builds a random sargable predicate over an int column.
func randPredicate(rng *rand.Rand) workload.Predicate {
	ops := []workload.CmpOp{workload.OpEq, workload.OpLt, workload.OpLe, workload.OpGt, workload.OpGe, workload.OpBetween}
	op := ops[rng.Intn(len(ops))]
	a := int64(rng.Intn(41) - 20)
	b := a + int64(rng.Intn(20))
	p := workload.Predicate{Col: "x", Op: op, Lo: storage.IntVal(a)}
	if op == workload.OpBetween {
		p.Hi = storage.IntVal(b)
	}
	return p
}

// TestImplicationSoundnessQuick verifies the partial-index usability rule:
// whenever implies(q, p) holds, every value satisfying q also satisfies p.
// Unsoundness here would let the optimizer use a filtered index that is
// missing rows the query needs.
func TestImplicationSoundnessQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randPredicate(rng)
		p := randPredicate(rng)
		if !implies(q, p) {
			return true // nothing claimed, nothing to check
		}
		cq, cp := q.Lower(0, storage.KindInt), p.Lower(0, storage.KindInt)
		for v := int64(-30); v <= 30; v++ {
			x := storage.IntVal(v)
			if cq.Matches(x) && !cp.Matches(x) {
				t.Logf("unsound: %s implies %s but x=%d satisfies only q", q, p, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestImplicationReflexiveQuick: every sargable predicate implies itself.
func TestImplicationReflexiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPredicate(rng)
		return implies(p, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectivityBoundsQuick: selectivity estimates always land in [0, 1].
func TestSelectivityBoundsQuick(t *testing.T) {
	d := testDB(t)
	li := d.MustTable("lineitem")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPredicate(rng)
		p.Col = []string{"l_quantity", "l_partkey", "l_discount", "l_shipdate"}[rng.Intn(4)]
		s := PredicateSelectivity(li, p)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
