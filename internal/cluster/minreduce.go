package cluster

// The serving layer's argmin fold: the sharded fan-out
// (internal/shardserve) folds each shard group's (argmin, dist) pairs
// into the global nearest centroid per query row at the coordinator,
// as the answers arrive. CombineMin is an elementwise min with
// deterministic lowest-global-index tie-breaking, associative and
// commutative, so folding shard answers in any arrival order gives the
// same result as the single-node left-to-right argmin scan.

// MinPair is one query row's running reduction state: the global index
// of the nearest centroid seen so far and its raw (unclamped) squared
// distance. Index < 0 means "no candidate yet".
type MinPair struct {
	Index int32
	Dist  float64
}

// CombineMin folds src into dst elementwise: src wins where its
// distance is strictly smaller, or equal with a lower global index —
// exactly the ordering of the single-node argmin scan, which visits
// global indices ascending and replaces only on strictly-smaller
// distance. Panics if the lengths differ.
func CombineMin(dst, src []MinPair) {
	if len(dst) != len(src) {
		panic("cluster: CombineMin length mismatch")
	}
	for i, s := range src {
		if s.Index < 0 {
			continue
		}
		d := dst[i]
		if d.Index < 0 || s.Dist < d.Dist || (s.Dist == d.Dist && s.Index < d.Index) {
			dst[i] = s
		}
	}
}
