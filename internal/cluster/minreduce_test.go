package cluster

import (
	"math"
	"math/rand"
	"testing"
)

func TestCombineMin(t *testing.T) {
	dst := []MinPair{
		{Index: -1},                   // empty: src wins
		{Index: 4, Dist: 1.0},         // src smaller: src wins
		{Index: 4, Dist: 1.0},         // src larger: dst stays
		{Index: 9, Dist: 2.5},         // tie: lower index wins
		{Index: 2, Dist: 2.5},         // tie: dst already lower
		{Index: 7, Dist: math.Inf(1)}, // src empty: dst stays
	}
	src := []MinPair{
		{Index: 3, Dist: 5.0},
		{Index: 8, Dist: 0.5},
		{Index: 8, Dist: 1.5},
		{Index: 2, Dist: 2.5},
		{Index: 9, Dist: 2.5},
		{Index: -1},
	}
	want := []MinPair{
		{Index: 3, Dist: 5.0},
		{Index: 8, Dist: 0.5},
		{Index: 4, Dist: 1.0},
		{Index: 2, Dist: 2.5},
		{Index: 2, Dist: 2.5},
		{Index: 7, Dist: math.Inf(1)},
	}
	CombineMin(dst, src)
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("pair %d: got %+v want %+v", i, dst[i], want[i])
		}
	}
}

// TestCombineMinAssociative checks that folding shard answers in any
// order gives the single left-to-right scan's result — the property the
// fan-out router relies on to merge shards as they arrive.
func TestCombineMinAssociative(t *testing.T) {
	shards := [][]MinPair{
		{{Index: 5, Dist: 3}, {Index: 6, Dist: 1}},
		{{Index: 0, Dist: 3}, {Index: 1, Dist: 1}},
		{{Index: 9, Dist: 3}, {Index: 2, Dist: 2}},
	}
	fold := func(order []int) []MinPair {
		acc := []MinPair{{Index: -1}, {Index: -1}}
		for _, s := range order {
			CombineMin(acc, shards[s])
		}
		return acc
	}
	want := fold([]int{0, 1, 2})
	for _, order := range [][]int{{2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
		got := fold(order)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order %v pair %d: got %+v want %+v", order, i, got[i], want[i])
			}
		}
	}
	if want[0] != (MinPair{Index: 0, Dist: 3}) || want[1] != (MinPair{Index: 1, Dist: 1}) {
		t.Fatalf("unexpected fold result %+v", want)
	}
}

// TestCombineMinPartialParticipation is the replication layer's
// algebraic contract: for EVERY subset of machines (a machine-death
// mask — the dead shards' answers arrive from replicas holding
// identical values, or not at all), folding the surviving
// contributions in ANY order, with ANY of them duplicated (two
// replicas of one shard both answering), equals the single-node
// ascending-index argmin scan over the surviving ranges. Distances are
// drawn from a tiny value set so exact cross-machine ties are common,
// and the whole grid runs at both distance precisions (float64, and
// float64-of-float32 as the 32-bit serving path produces).
func TestCombineMinPartialParticipation(t *testing.T) {
	const machines = 5
	const rows = 24
	rng := rand.New(rand.NewSource(11))

	for _, quantize := range []bool{false, true} {
		// Machine m answers every row with an argmin inside its own
		// global index range [m*10, m*10+10). The tie pool guarantees
		// equal distances across machines (duplicate centroids).
		tiePool := []float64{0.25, 0.5, 1, 2}
		contribs := make([][]MinPair, machines)
		for m := range contribs {
			contribs[m] = make([]MinPair, rows)
			for i := range contribs[m] {
				d := tiePool[rng.Intn(len(tiePool))]
				if rng.Intn(3) == 0 {
					d = rng.Float64()
				}
				if quantize {
					d = float64(float32(d))
				}
				contribs[m][i] = MinPair{Index: int32(m*10 + rng.Intn(10)), Dist: d}
			}
		}

		// oracle: the single-node scan over the surviving machines'
		// candidates, ascending global index, strictly-smaller wins.
		oracle := func(mask uint) []MinPair {
			out := make([]MinPair, rows)
			for i := range out {
				out[i].Index = -1
			}
			for m := 0; m < machines; m++ { // ascending ⇒ ascending global index
				if mask&(1<<m) == 0 {
					continue
				}
				for i, c := range contribs[m] {
					if out[i].Index < 0 || c.Dist < out[i].Dist {
						out[i] = c
					}
				}
			}
			return out
		}

		for mask := uint(1); mask < 1<<machines; mask++ {
			want := oracle(mask)
			var live []int
			for m := 0; m < machines; m++ {
				if mask&(1<<m) != 0 {
					live = append(live, m)
				}
			}
			for trial := 0; trial < 4; trial++ {
				order := append([]int(nil), live...)
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				acc := make([]MinPair, rows)
				for i := range acc {
					acc[i].Index = -1
				}
				for _, m := range order {
					CombineMin(acc, contribs[m])
					if trial%2 == 1 { // a second replica answers too
						CombineMin(acc, contribs[m])
					}
				}
				for i := range want {
					if acc[i] != want[i] {
						t.Fatalf("quantize=%v mask=%05b order=%v row %d: got %+v want %+v",
							quantize, mask, order, i, acc[i], want[i])
					}
				}
			}
		}
	}
}
