package kmeans

import (
	"math/rand"

	"knor/internal/blas"
	"knor/internal/matrix"
)

// RowData is the read-only row access centroid initialisation needs.
// *matrix.Mat[T] satisfies it directly; the SEM storage backends adapt
// their streaming cursors to it, so a file-backed engine draws exactly
// the same seeds as an in-memory one (the RNG consumption below never
// depends on how rows are fetched). A returned row need only stay
// valid until the next Row call.
type RowData[T blas.Float] interface {
	Rows() int
	Cols() int
	Row(i int) []T
}

// InitCentroidsFor exposes centroid initialisation for the SEM and
// distributed engines, which drive their own iteration loops.
func InitCentroidsFor(data *matrix.Dense, cfg Config) *matrix.Dense {
	return initCentroids(data, cfg)
}

// InitCentroidsOf is InitCentroidsFor generic over the element type:
// the float32 instantiation is the init a Precision32 run performs
// (arithmetic in float32, so the seed centroids match the single-node
// float32 oracle's bit for bit).
func InitCentroidsOf[T blas.Float](data *matrix.Mat[T], cfg Config) *matrix.Mat[T] {
	return initCentroids(data, cfg)
}

// InitCentroidsFromRows is InitCentroidsFor over any row source — the
// streaming path for engines whose data never fully resides in memory.
// Fed the same row values it is bit-identical to InitCentroidsFor.
func InitCentroidsFromRows(data RowData[float64], cfg Config) *matrix.Dense {
	return initCentroidsRows[float64](data, cfg)
}

// initCentroids produces the iteration-0 centroids per the config.
func initCentroids[T blas.Float](data *matrix.Mat[T], cfg Config) *matrix.Mat[T] {
	return initCentroidsRows[T](data, cfg)
}

// initCentroidsRows is the shared implementation. The RNG consumption
// is data-independent for Forgy and random-partition, so those draws
// match across element types; k-means++ samples by D² mass, so float32
// runs may pick different seeds near ties.
func initCentroidsRows[T blas.Float](data RowData[T], cfg Config) *matrix.Mat[T] {
	switch cfg.Init {
	case InitForgy:
		return initForgy(data, cfg.K, cfg.Seed)
	case InitRandomPartition:
		return initRandomPartition(data, cfg.K, cfg.Seed)
	case InitKMeansPP:
		c, _ := initKMeansPP(data, cfg.K, cfg.Seed, nil)
		return c
	case InitGiven:
		return centroidsAs[T](cfg.Centroids)
	default:
		panic("kmeans: unknown init method")
	}
}

// centroidsAs copies the config's float64 centroids at the engine's
// element type.
func centroidsAs[T blas.Float](c *matrix.Dense) *matrix.Mat[T] {
	if m, ok := any(c).(*matrix.Mat[T]); ok {
		return m.Clone()
	}
	return matrix.Convert[T](c)
}

// initForgy picks k distinct rows uniformly at random.
func initForgy[T blas.Float](data RowData[T], k int, seed int64) *matrix.Mat[T] {
	rng := rand.New(rand.NewSource(seed))
	n := data.Rows()
	picked := make(map[int]bool, k)
	c := matrix.New[T](k, data.Cols())
	for i := 0; i < k; i++ {
		r := rng.Intn(n)
		for picked[r] {
			r = rng.Intn(n)
		}
		picked[r] = true
		copy(c.Row(i), data.Row(r))
	}
	return c
}

// initRandomPartition assigns every row a random cluster and uses the
// cluster means as initial centroids. Empty clusters fall back to a
// random row.
func initRandomPartition[T blas.Float](data RowData[T], k int, seed int64) *matrix.Mat[T] {
	rng := rand.New(rand.NewSource(seed))
	d := data.Cols()
	c := matrix.New[T](k, d)
	counts := make([]int, k)
	for i := 0; i < data.Rows(); i++ {
		g := rng.Intn(k)
		counts[g]++
		matrix.AddTo(c.Row(g), data.Row(i))
	}
	for g := 0; g < k; g++ {
		if counts[g] == 0 {
			copy(c.Row(g), data.Row(rng.Intn(data.Rows())))
			continue
		}
		matrix.Scale(c.Row(g), 1/T(counts[g]))
	}
	return c
}

// initKMeansPP implements k-means++ D² seeding (Arthur & Vassilvitskii),
// listed in the paper's future work (§9) via semi-supervised k-means++.
// It returns the seeds and every row's final D², its squared distance
// to the nearest seed. A non-nil near receives that seed's index per
// row: a D² is lowered only by a strictly smaller distance, so among
// equal minima near keeps the lowest index, as assignExact's argmin
// does.
func initKMeansPP[T blas.Float](data RowData[T], k int, seed int64, near []int32) (*matrix.Mat[T], []T) {
	rng := rand.New(rand.NewSource(seed))
	n, d := data.Rows(), data.Cols()
	c := matrix.New[T](k, d)
	copy(c.Row(0), data.Row(rng.Intn(n)))
	d2 := make([]T, n)
	// D² scans hand SqDistRows d2Block rows at a time: an in-memory
	// matrix's rows in place, a streaming RowData (knors'
	// InitCentroidsFromRows) copied into one block of rows first, so
	// memory stays O(d2Block·d). Seed 0's scan sets d2; later ones
	// lower it to the new seed's distance.
	mat, _ := data.(*matrix.Mat[T])
	var block []T
	if mat == nil {
		block = make([]T, d2Block*d)
	}
	nd := make([]T, d2Block)
	scan := func(g int) {
		for lo := 0; lo < n; lo += d2Block {
			hi := min(lo+d2Block, n)
			var rows []T
			if mat != nil {
				rows = mat.Data[lo*d : hi*d]
			} else {
				rows = block[:(hi-lo)*d]
				for i := lo; i < hi; i++ {
					copy(rows[(i-lo)*d:], data.Row(i))
				}
			}
			if g == 0 {
				blas.SqDistRows(c.Row(0), rows, hi-lo, d2[lo:hi])
				continue
			}
			blas.SqDistRows(c.Row(g), rows, hi-lo, nd)
			for i, v := range nd[:hi-lo] {
				if v < d2[lo+i] {
					d2[lo+i] = v
					if near != nil {
						near[lo+i] = int32(g)
					}
				}
			}
		}
	}
	scan(0)
	for g := 1; g < k; g++ {
		// The D² prefix sum runs in float64 at every width: at float32 a
		// large-n total saturates (ulp ~ total·ε), silently zeroing the
		// tail rows' sampling mass. The per-row d2 values stay in T.
		var total float64
		for _, v := range d2 {
			total += float64(v)
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, v := range d2 {
				acc += float64(v)
				if acc >= target {
					pick = i
					break
				}
			}
		}
		copy(c.Row(g), data.Row(pick))
		scan(g)
	}
	return c, d2
}

// seeding is k-means++'s by-product for an in-memory run: each row's
// nearest seed and its D². The engine's first pass applies it as
// iteration 0's assignment (PruneStateOf.assignSeeded).
type seeding[T blas.Float] struct {
	near []int32
	d2   []T
}

// seedsAssign reports whether a run's k-means++ seeding can stand in
// for iteration 0's scan: its seeds must be iteration 0's centroids
// (spherical runs normalise them after picking) and iteration 0 must
// need only each row's nearest centroid (TI primes all k lower bounds,
// Yinyang its group bounds).
func seedsAssign(cfg Config) bool {
	return cfg.Init == InitKMeansPP && !cfg.Spherical &&
		(cfg.Prune == PruneNone || cfg.Prune == PruneMTI)
}

// d2Block is how many rows a k-means++ D² scan hands SqDistRows at once.
const d2Block = 256

// normalizeRows is the spherical variant's row normalisation, shared
// across engines via matrix.NormalizeRows.
func normalizeRows[T blas.Float](m *matrix.Mat[T]) { matrix.NormalizeRows(m) }
