package kmeans

import (
	"math"
	"unsafe"

	"knor/internal/blas"
	"knor/internal/matrix"
)

// inf returns +Inf in T (exact at every width).
func inf[T blas.Float]() T { return T(math.Inf(1)) }

// sqrtT computes √x through float64 (widening float32 is exact, so the
// float64 path is unchanged and the float32 result is correctly
// rounded).
func sqrtT[T blas.Float](x T) T { return T(math.Sqrt(float64(x))) }

// PruneCounters tallies pruning behaviour within one iteration.
type PruneCounters struct {
	DistCalcs uint64 // exact distance computations
	C1        uint64 // rows skipped entirely (clause 1)
	C2        uint64 // candidates skipped pre-tighten (clause 2)
	C3        uint64 // candidates skipped post-tighten (clause 3)
}

// Add accumulates other into c.
func (c *PruneCounters) Add(o PruneCounters) {
	c.DistCalcs += o.DistCalcs
	c.C1 += o.C1
	c.C2 += o.C2
	c.C3 += o.C3
}

// Tally is one compute-pass worker's counters: its pruning counters and
// how many rows it moved. AssignRow bumps them for every candidate, so
// each worker gets a whole 128-byte Tally: adjacent workers' counters
// then share no cache line, nor an adjacent-line prefetch pair.
type Tally struct {
	Ctr     PruneCounters
	Changed int
	_       [128 - unsafe.Sizeof(PruneCounters{}) - unsafe.Sizeof(0)]byte
}

// TallyStats folds the workers' tallies of an n-row pass into the
// iteration's counters, rows changed and active rows.
func TallyStats(ts []Tally, n int) IterStats {
	var st IterStats
	for i := range ts {
		st.DistCalcs += ts[i].Ctr.DistCalcs
		st.PrunedC1 += ts[i].Ctr.C1
		st.PrunedC2 += ts[i].Ctr.C2
		st.PrunedC3 += ts[i].Ctr.C3
		st.RowsChanged += ts[i].Changed
	}
	st.ActiveRows = n - int(st.PrunedC1)
	return st
}

// PruneStateOf holds the triangle-inequality bound state shared by the
// in-memory, SEM and distributed engines, generic over the element
// type. PruneState is the float64 instantiation.
//
// MTI (the paper's contribution) keeps an O(n) upper bound per row plus
// an O(k²) centroid-to-centroid half-distance structure — three of
// Elkan's four pruning clauses without the O(nk) lower-bound matrix.
// PruneTI adds that matrix for the full Elkan comparison.
//
// At float32 the bound comparisons are performed in float32: the bounds
// themselves are computed from correctly-rounded distances, so pruning
// decisions can differ from the float64 engine near ties — the float32
// engines carry a relative-error contract, not bit-identity.
type PruneStateOf[T blas.Float] struct {
	Mode   Prune
	N, K   int
	Assign []int32
	UB     []T // upper bound of d(v, assigned centroid); pruned modes
	CC     []T // k×k centroid pairwise distances (MTI/TI)
	SHalf  []T // 0.5 × min distance from centroid c to any other
	LB     []T // n×k lower bounds (TI only)
	Drift  []T // per-centroid movement after last update

	// Yinyang group state (PruneYinyang only).
	T            int     // group count, ~k/10
	GroupOf      []int   // centroid -> group
	GroupMembers [][]int // group -> member centroids
	LBG          []T     // n×t per-group lower bounds
	GroupDrift   []T     // per-group max drift
}

// PruneState is the float64 bound state of the oracle engines.
type PruneState = PruneStateOf[float64]

// NewPruneState allocates float64 state for n rows and k clusters.
func NewPruneState(mode Prune, n, k int) *PruneState {
	return NewPruneStateOf[float64](mode, n, k)
}

// NewPruneStateOf allocates state of element type T for n rows and k
// clusters.
func NewPruneStateOf[T blas.Float](mode Prune, n, k int) *PruneStateOf[T] {
	p := &PruneStateOf[T]{Mode: mode, N: n, K: k, Assign: make([]int32, n)}
	for i := range p.Assign {
		p.Assign[i] = -1
	}
	switch mode {
	case PruneMTI, PruneTI:
		p.UB = make([]T, n)
		p.CC = make([]T, k*k)
		p.SHalf = make([]T, k)
		p.Drift = make([]T, k)
		if mode == PruneTI {
			p.LB = make([]T, n*k)
		}
	case PruneYinyang:
		p.UB = make([]T, n)
		p.Drift = make([]T, k)
		p.initYinyang(k)
	}
	return p
}

// MemoryBytes reports the bound-state footprint, the quantity Table 1
// and Figure 8c track. Bound arrays are element-sized, so the float32
// engines report half the bound memory.
func (p *PruneStateOf[T]) MemoryBytes() uint64 {
	eb := uint64(blas.ElemBytes[T]())
	b := uint64(len(p.Assign)) * 4
	b += uint64(len(p.UB)+len(p.CC)+len(p.SHalf)+len(p.LB)+len(p.Drift)) * eb
	b += uint64(len(p.LBG)+len(p.GroupDrift)) * eb
	b += uint64(len(p.GroupOf)) * 8
	return b
}

// UpdateCentroidDists refreshes CC and SHalf for the iteration's
// centroids. Cost O(k²d); every engine calls it once per iteration.
// Row a of CC takes centroid a's distances to centroids a+1…k−1 from
// one SqDistRows call, square-rooted in place, and mirrors them below
// the diagonal.
func (p *PruneStateOf[T]) UpdateCentroidDists(cents *matrix.Mat[T]) {
	if p.Mode == PruneNone || p.Mode == PruneYinyang {
		return // Yinyang keeps no centroid-to-centroid structure
	}
	k, d := p.K, cents.Cols()
	for a := 0; a < k; a++ {
		p.CC[a*k+a] = 0
		upper := p.CC[a*k+a+1 : (a+1)*k]
		blas.SqDistRows(cents.Row(a), cents.Data[(a+1)*d:k*d], k-a-1, upper)
		for j, d2 := range upper {
			dist := sqrtT(d2)
			upper[j] = dist
			p.CC[(a+1+j)*k+a] = dist
		}
	}
	for c := 0; c < k; c++ {
		m := inf[T]()
		for o := 0; o < k; o++ {
			if o != c && p.CC[c*k+o] < m {
				m = p.CC[c*k+o]
			}
		}
		p.SHalf[c] = 0.5 * m
	}
}

// NeedsRow reports whether row i's data must be touched this iteration.
// For MTI/TI this is the negation of Clause 1: if the upper bound is
// within half the distance to the nearest other centroid, the row
// cannot change membership and — crucially for knors — needs no I/O.
func (p *PruneStateOf[T]) NeedsRow(i int) bool {
	switch p.Mode {
	case PruneNone:
		return true
	case PruneYinyang:
		return p.yinyangNeedsRow(i)
	}
	b := p.Assign[i]
	if b < 0 {
		return true
	}
	return p.UB[i] > p.SHalf[b]
}

// AssignRow (re)assigns row i given its data, assuming NeedsRow(i)
// returned true (the engine counts clause-1 skips itself via
// CountClause1). dist is a scratch row of at least K elements, private
// to the calling worker, for the unpruned scans. Returns whether
// membership changed.
func (p *PruneStateOf[T]) AssignRow(i int, row []T, cents *matrix.Mat[T], ctr *PruneCounters, dist []T) bool {
	if p.Mode == PruneYinyang {
		if p.Assign[i] < 0 {
			return p.yinyangExact(i, row, cents, ctr, dist)
		}
		return p.yinyangAssign(i, row, cents, ctr)
	}
	if p.Mode == PruneNone || p.Assign[i] < 0 {
		return p.assignExact(i, row, cents, ctr, dist)
	}
	k := p.K
	b := int(p.Assign[i])
	u := p.UB[i]
	tight := false
	for c := 0; c < k; c++ {
		if c == b {
			continue
		}
		bound := 0.5 * p.CC[b*k+c]
		if p.Mode == PruneTI && p.LB[i*k+c] > bound {
			bound = p.LB[i*k+c]
		}
		if u <= bound {
			if tight {
				ctr.C3++
			} else {
				ctr.C2++
			}
			continue
		}
		if !tight {
			u = matrix.Dist(row, cents.Row(b))
			ctr.DistCalcs++
			tight = true
			if p.Mode == PruneTI {
				p.LB[i*k+b] = u
			}
			// Re-check this candidate with the exact bound (clause 3).
			if u <= bound {
				ctr.C3++
				continue
			}
		}
		d := matrix.Dist(row, cents.Row(c))
		ctr.DistCalcs++
		if p.Mode == PruneTI {
			p.LB[i*k+c] = d
		}
		if d < u {
			b = c
			u = d
		}
	}
	changed := int32(b) != p.Assign[i]
	p.Assign[i] = int32(b)
	p.UB[i] = u
	return changed
}

// assignExact performs the unpruned argmin scan, also priming bounds
// when pruning is enabled (used for iteration 0 and PruneNone). One
// SqDistRows call fills the row's distances to all k centroids; the
// argmin keeps the first of equal distances. The PruneNone/MTI paths
// compare squared distances — no per-candidate sqrt — which is what
// keeps the serial baseline competitive with the fused iterative
// kernels of Table 3. Full TI needs every true distance to prime its
// lower-bound matrix, so it square-roots them in place there.
func (p *PruneStateOf[T]) assignExact(i int, row []T, cents *matrix.Mat[T], ctr *PruneCounters, dist []T) bool {
	k := p.K
	if p.Mode == PruneTI {
		dist = p.LB[i*k : (i+1)*k]
	}
	dist = dist[:k]
	blas.SqDistRows(row, cents.Data, k, dist)
	ctr.DistCalcs += uint64(k)
	best := inf[T]()
	bi := 0
	if p.Mode == PruneTI {
		for c, d2 := range dist {
			d := sqrtT(d2)
			dist[c] = d
			if d < best {
				best = d
				bi = c
			}
		}
		p.UB[i] = best
	} else {
		for c, d2 := range dist {
			if d2 < best {
				best = d2
				bi = c
			}
		}
		if p.Mode == PruneMTI {
			p.UB[i] = sqrtT(best)
		}
	}
	changed := int32(bi) != p.Assign[i]
	p.Assign[i] = int32(bi)
	return changed
}

// assignSeeded assigns row i, not yet assigned, to seed c at squared
// distance d2, as k-means++ seeding found them. SqDistRows gives the
// seeding's seed-to-rows distances the bits of assignExact's
// row-to-seeds ones, and both keep the first of equal minima, so for a
// non-NaN d2 this is assignExact's answer. It counts the k distances
// that scan computes, so counters and simulated time do not move.
func (p *PruneStateOf[T]) assignSeeded(i int, c int32, d2 T, ctr *PruneCounters) bool {
	ctr.DistCalcs += uint64(p.K)
	changed := c != p.Assign[i]
	p.Assign[i] = c
	if p.Mode == PruneMTI {
		p.UB[i] = sqrtT(d2)
	}
	return changed
}

// UpdateAfterMove recomputes per-centroid drift after a centroid update
// and loosens the row bounds accordingly (ub += drift of its centroid;
// lb -= drift of each centroid). Returns total drift, the convergence
// quantity f(c) summed over centroids. Safe for parallel row ranges via
// LoosenRows; this single-threaded variant loosens everything.
func (p *PruneStateOf[T]) UpdateAfterMove(old, next *matrix.Mat[T]) float64 {
	total := 0.0
	if p.Mode == PruneNone {
		for c := 0; c < p.K; c++ {
			total += float64(matrix.Dist(old.Row(c), next.Row(c)))
		}
		return total
	}
	total = p.ComputeDrift(old, next)
	p.LoosenRows(0, p.N)
	return total
}

// ComputeDrift fills Drift without touching row bounds (engines that
// loosen rows in parallel call this then LoosenRows per range).
func (p *PruneStateOf[T]) ComputeDrift(old, next *matrix.Mat[T]) float64 {
	total := 0.0
	if p.Mode == PruneNone {
		for c := 0; c < p.K; c++ {
			total += float64(matrix.Dist(old.Row(c), next.Row(c)))
		}
		return total
	}
	if p.Mode == PruneYinyang {
		return p.yinyangComputeDrift(old, next)
	}
	for c := 0; c < p.K; c++ {
		p.Drift[c] = matrix.Dist(old.Row(c), next.Row(c))
		total += float64(p.Drift[c])
	}
	return total
}

// LoosenRows applies the post-update bound adjustment to rows [lo, hi).
func (p *PruneStateOf[T]) LoosenRows(lo, hi int) {
	if p.Mode == PruneNone {
		return
	}
	if p.Mode == PruneYinyang {
		p.yinyangLoosen(lo, hi)
		return
	}
	k := p.K
	for i := lo; i < hi; i++ {
		a := p.Assign[i]
		if a >= 0 {
			p.UB[i] += p.Drift[a]
		}
		if p.Mode == PruneTI {
			lb := p.LB[i*k : (i+1)*k]
			for c := 0; c < k; c++ {
				lb[c] -= p.Drift[c]
				if lb[c] < 0 {
					lb[c] = 0
				}
			}
		}
	}
}
