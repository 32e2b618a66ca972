package kmeans

import (
	"knor/internal/blas"
	"knor/internal/matrix"
)

// Yinyang k-means (Ding et al., ICML'15) is the pruning competitor the
// paper's related work analyses: instead of Elkan's O(nk) lower-bound
// matrix it keeps one lower bound per *group* of centroids, O(nt) with
// t ≈ k/10 groups. The paper argues both TI and Yinyang scale worse in
// memory than MTI's O(n); implementing it makes that trade-off
// measurable (ablation "yinyang" in cmd/knorbench).
//
// The implementation follows the global-filter + group-filter structure
// of the original, with centroid groups fixed at construction by index
// chunking (the original seeds groups by clustering the initial
// centroids; chunking changes pruning power, not correctness, and
// knor's centroid indices are random anyway).
//
// Invariant maintained for every row i and group g:
//
//	LBG[i*t+g] <= d(row i, c)  for every centroid c in group g other
//	                           than the row's current assignment.

// yinyangGroups returns the default group count, t = max(1, k/10).
func yinyangGroups(k int) int {
	t := k / 10
	if t < 1 {
		t = 1
	}
	return t
}

// initYinyang sizes the group state on a PruneState.
func (p *PruneStateOf[T]) initYinyang(k int) {
	p.T = yinyangGroups(k)
	p.GroupOf = make([]int, k)
	p.GroupMembers = make([][]int, p.T)
	for c := 0; c < k; c++ {
		g := c * p.T / k
		p.GroupOf[c] = g
		p.GroupMembers[g] = append(p.GroupMembers[g], c)
	}
	p.LBG = make([]T, p.N*p.T)
	p.GroupDrift = make([]T, p.T)
}

// yinyangNeedsRow is the global filter: if the upper bound sits below
// every group's lower bound, no centroid can have come closer — the row
// keeps its membership with no data access (the clause-1 analogue).
func (p *PruneStateOf[T]) yinyangNeedsRow(i int) bool {
	if p.Assign[i] < 0 {
		return true
	}
	u := p.UB[i]
	lbg := p.LBG[i*p.T : (i+1)*p.T]
	for _, lb := range lbg {
		if u > lb {
			return true
		}
	}
	return false
}

// yinyangAssign reassigns row i under group filtering. The engine has
// already established that the global filter fails.
func (p *PruneStateOf[T]) yinyangAssign(i int, row []T, cents *matrix.Mat[T], ctr *PruneCounters) bool {
	t := p.T
	b := int(p.Assign[i])
	lbg := p.LBG[i*t : (i+1)*t]

	// Tighten the upper bound once: exact distance to the assignment.
	u := matrix.Dist(row, cents.Row(b))
	ctr.DistCalcs++

	newB, newU := b, u
	for g := 0; g < t; g++ {
		if newU <= lbg[g] {
			// Group filter holds against the current best.
			ctr.C3++
			continue
		}
		// Scan the group's members (excluding the original assignment),
		// tracking the two smallest distances to rebuild the bound.
		min1, min2 := inf[T](), inf[T]()
		min1c := -1
		for _, c := range p.GroupMembers[g] {
			if c == b {
				continue
			}
			d := matrix.Dist(row, cents.Row(c))
			ctr.DistCalcs++
			if d < min1 {
				min2 = min1
				min1 = d
				min1c = c
			} else if d < min2 {
				min2 = d
			}
		}
		if min1 < newU {
			// min1c displaces the current candidate. The displaced
			// candidate becomes an "other" of its own group, so its
			// exact distance must cap that group's bound — unless it is
			// the original assignment b, which stays excluded from the
			// invariant until the final patch below.
			if newB != b {
				gPrev := p.GroupOf[newB]
				if gPrev == g {
					if newU < min2 {
						min2 = newU
					}
				} else if newU < lbg[gPrev] {
					lbg[gPrev] = newU
				}
			}
			lbg[g] = min2
			newB, newU = min1c, min1
		} else {
			lbg[g] = min1
		}
	}
	// If the assignment moved, the original b is now an "other" of its
	// group; its exact distance u caps that bound.
	if newB != b {
		gb := p.GroupOf[b]
		if u < lbg[gb] {
			lbg[gb] = u
		}
	}
	changed := int32(newB) != p.Assign[i]
	p.Assign[i] = int32(newB)
	p.UB[i] = newU
	return changed
}

// yinyangExact primes the bounds with a full scan: one SqDistRows
// call into the worker's scratch row, square-rooted in place.
func (p *PruneStateOf[T]) yinyangExact(i int, row []T, cents *matrix.Mat[T], ctr *PruneCounters, dist []T) bool {
	t := p.T
	k := p.K
	dist = dist[:k]
	blas.SqDistRows(row, cents.Data, k, dist)
	best, bi := inf[T](), 0
	ctr.DistCalcs += uint64(k)
	for c, d2 := range dist {
		dist[c] = sqrtT(d2)
		if dist[c] < best {
			best = dist[c]
			bi = c
		}
	}
	lbg := p.LBG[i*t : (i+1)*t]
	for g := 0; g < t; g++ {
		lbg[g] = inf[T]()
	}
	for c := 0; c < k; c++ {
		if c == bi {
			continue
		}
		g := p.GroupOf[c]
		if dist[c] < lbg[g] {
			lbg[g] = dist[c]
		}
	}
	changed := int32(bi) != p.Assign[i]
	p.Assign[i] = int32(bi)
	p.UB[i] = best
	return changed
}

// yinyangLoosen applies the post-update drift adjustment for rows
// [lo, hi): ub grows by the assigned centroid's drift; each group bound
// shrinks by the group's maximum drift.
func (p *PruneStateOf[T]) yinyangLoosen(lo, hi int) {
	t := p.T
	for i := lo; i < hi; i++ {
		a := p.Assign[i]
		if a >= 0 {
			p.UB[i] += p.Drift[a]
		}
		lbg := p.LBG[i*t : (i+1)*t]
		for g := 0; g < t; g++ {
			lbg[g] -= p.GroupDrift[g]
			if lbg[g] < 0 {
				lbg[g] = 0
			}
		}
	}
}

// yinyangComputeDrift fills Drift and the per-group maxima.
func (p *PruneStateOf[T]) yinyangComputeDrift(old, next *matrix.Mat[T]) float64 {
	total := 0.0
	for g := range p.GroupDrift {
		p.GroupDrift[g] = 0
	}
	for c := 0; c < p.K; c++ {
		d := matrix.Dist(old.Row(c), next.Row(c))
		p.Drift[c] = d
		total += float64(d)
		if g := p.GroupOf[c]; d > p.GroupDrift[g] {
			p.GroupDrift[g] = d
		}
	}
	return total
}
