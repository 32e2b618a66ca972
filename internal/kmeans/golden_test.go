package kmeans_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"knor/internal/dist"
	"knor/internal/kmeans"
	"knor/internal/sem"
	"knor/internal/store"
	"knor/internal/workload"
)

// resultHash is an FNV-1a digest of everything a training run decides:
// centroid bits, assignments, per-iteration DistCalcs/C1/C2/C3, the
// iteration count and the SSE bits.
func resultHash(res *kmeans.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range res.Centroids.Data {
		put(math.Float64bits(v))
	}
	for _, a := range res.Assign {
		put(uint64(uint32(a)))
	}
	for _, st := range res.PerIter {
		put(st.DistCalcs)
		put(st.PrunedC1)
		put(st.PrunedC2)
		put(st.PrunedC3)
	}
	put(uint64(res.Iters))
	put(math.Float64bits(res.SSE))
	return h.Sum64()
}

// goldenShapes cover an odd d with k not a multiple of 8 and a k below
// 8, with every runner, init and pruning mode, and the model a d32
// deployment trains (k=1000 at d=32, k-means++, MTI) with knori and the
// serial oracle only, which keeps the test short under the race
// detector. dist needs k rows per machine, so it runs on the small
// shapes.
var goldenShapes = []struct {
	name        string
	n, d, k, it int
	small       bool
}{
	{"n400d13k12", 400, 13, 12, 8, true},
	{"n200d5k5", 200, 5, 5, 8, true},
	{"n1200d32k1000", 1200, 32, 1000, 2, false},
}

var (
	goldenPrunes = []kmeans.Prune{kmeans.PruneNone, kmeans.PruneMTI, kmeans.PruneTI, kmeans.PruneYinyang}
	goldenPrecs  = []kmeans.Precision{kmeans.Precision64, kmeans.Precision32}
)

// trainingGoldens were captured from the scalar SqDist loops, before
// training's dense scans moved to blas.SqDistRows. The serial oracle
// shares PruneStateOf with every engine, so a kernel that changed a bit
// would move both sides of the oracle tests; these constants would not
// move. A mismatch prints the label and the new hash.
var trainingGoldens = map[string]uint64{
	"run/n400d13k12/kmeans++/none/f64":     0x6962f4b321c332f5,
	"dist/n400d13k12/kmeans++/none/f64":    0x3b60a16444d97a7b,
	"run/n400d13k12/kmeans++/none/f32":     0xea8e553747d67bdb,
	"dist/n400d13k12/kmeans++/none/f32":    0x135ad4f6978e0d7a,
	"serial/n400d13k12/kmeans++/none":      0xf2301def0291287b,
	"sem/n400d13k12/kmeans++/none":         0x8802c5cedb88b585,
	"run/n400d13k12/kmeans++/mti/f64":      0x68be6a25441fbb9e,
	"dist/n400d13k12/kmeans++/mti/f64":     0xf19a2648cfad5378,
	"run/n400d13k12/kmeans++/mti/f32":      0xcd214afb2b6d4fd8,
	"dist/n400d13k12/kmeans++/mti/f32":     0xe81da6783ee50ac5,
	"serial/n400d13k12/kmeans++/mti":       0xabc6493eb3224228,
	"sem/n400d13k12/kmeans++/mti":          0x964ff82baeab1722,
	"run/n400d13k12/kmeans++/ti/f64":       0xb94a2d91694a9ed4,
	"dist/n400d13k12/kmeans++/ti/f64":      0x505c2fb3d555848e,
	"run/n400d13k12/kmeans++/ti/f32":       0xb740ee7176316502,
	"dist/n400d13k12/kmeans++/ti/f32":      0xfb49b94d90d2893f,
	"serial/n400d13k12/kmeans++/ti":        0x38c9fc66fc9dde62,
	"sem/n400d13k12/kmeans++/ti":           0x65c1e3217e64e4c0,
	"run/n400d13k12/kmeans++/yinyang/f64":  0x6a908dfd92e5f5f3,
	"dist/n400d13k12/kmeans++/yinyang/f64": 0xc3a9940986cf37dd,
	"run/n400d13k12/kmeans++/yinyang/f32":  0x7e0903d1cf85195d,
	"dist/n400d13k12/kmeans++/yinyang/f32": 0xdb7509cda1c36884,
	"serial/n400d13k12/kmeans++/yinyang":   0x47210cde1d98216d,
	"sem/n400d13k12/kmeans++/yinyang":      0xe66e1c42a0b9a523,
	"run/n400d13k12/forgy/none/f64":        0xed2a82e624f4caf3,
	"dist/n400d13k12/forgy/none/f64":       0x637318e3054ff58c,
	"run/n400d13k12/forgy/none/f32":        0x8479b065cc9a2e90,
	"dist/n400d13k12/forgy/none/f32":       0xe443b3ae176e978d,
	"serial/n400d13k12/forgy/none":         0xd830be1d505bef2f,
	"run/n400d13k12/forgy/mti/f64":         0xed2fa185e9169699,
	"dist/n400d13k12/forgy/mti/f64":        0x6c16c440b77c5386,
	"run/n400d13k12/forgy/mti/f32":         0x82b726f1a53357c2,
	"dist/n400d13k12/forgy/mti/f32":        0xd60ecf6e54aef457,
	"serial/n400d13k12/forgy/mti":          0x23bc721a2d36408d,
	"run/n400d13k12/forgy/ti/f64":          0xe707f05b18a740b2,
	"dist/n400d13k12/forgy/ti/f64":         0xebdcaf24d6d422c5,
	"run/n400d13k12/forgy/ti/f32":          0x67dbb72971ffcd89,
	"dist/n400d13k12/forgy/ti/f32":         0xb63918fa96ac4dc4,
	"serial/n400d13k12/forgy/ti":           0x162a08f9cd0e2d3e,
	"run/n400d13k12/forgy/yinyang/f64":     0x0b6819e86002b011,
	"dist/n400d13k12/forgy/yinyang/f64":    0xcb0e5a55cec9651e,
	"run/n400d13k12/forgy/yinyang/f32":     0x7cfaff693de1453a,
	"dist/n400d13k12/forgy/yinyang/f32":    0x32dc9fc5f298b98f,
	"serial/n400d13k12/forgy/yinyang":      0x47a14b6e26b9ee55,
	"run/n200d5k5/kmeans++/none/f64":       0xf19dbdb165e075cc,
	"dist/n200d5k5/kmeans++/none/f64":      0x6ebdd3c99e82b7e3,
	"run/n200d5k5/kmeans++/none/f32":       0x7a13e86be41033d0,
	"dist/n200d5k5/kmeans++/none/f32":      0x957a9599965a9c42,
	"serial/n200d5k5/kmeans++/none":        0x8fd4d27a26fa0d1c,
	"sem/n200d5k5/kmeans++/none":           0x2a15358215a6550e,
	"run/n200d5k5/kmeans++/mti/f64":        0xee413df78f4bc835,
	"dist/n200d5k5/kmeans++/mti/f64":       0x3460705870569b9a,
	"run/n200d5k5/kmeans++/mti/f32":        0xef7d1cbb8777386d,
	"dist/n200d5k5/kmeans++/mti/f32":       0x0c8a509446269283,
	"serial/n200d5k5/kmeans++/mti":         0x4908d23514a28085,
	"sem/n200d5k5/kmeans++/mti":            0x4a78c3f955027993,
	"run/n200d5k5/kmeans++/ti/f64":         0xa88770058c97359a,
	"dist/n200d5k5/kmeans++/ti/f64":        0xc8691f8a226591c1,
	"run/n200d5k5/kmeans++/ti/f32":         0xa9deb5ee293fd1d2,
	"dist/n200d5k5/kmeans++/ti/f32":        0xea48e3199d889d10,
	"serial/n200d5k5/kmeans++/ti":          0x81cd33691551880a,
	"sem/n200d5k5/kmeans++/ti":             0x7aff766e8a7398b8,
	"run/n200d5k5/kmeans++/yinyang/f64":    0xced8b3a4c7a47caa,
	"dist/n200d5k5/kmeans++/yinyang/f64":   0xa783366533b9c7c9,
	"run/n200d5k5/kmeans++/yinyang/f32":    0x2d8de42b5221e42a,
	"dist/n200d5k5/kmeans++/yinyang/f32":   0x00df4f69aee08878,
	"serial/n200d5k5/kmeans++/yinyang":     0x67a44bf18b1fcd3a,
	"sem/n200d5k5/kmeans++/yinyang":        0xa3bb10d73e5e70c8,
	"run/n200d5k5/forgy/none/f64":          0x947fea29188760e8,
	"dist/n200d5k5/forgy/none/f64":         0xe60c52ad7476e332,
	"run/n200d5k5/forgy/none/f32":          0x63d18dc016adcf44,
	"dist/n200d5k5/forgy/none/f32":         0x51abbc58dae3ed2a,
	"serial/n200d5k5/forgy/none":           0x66c4b4d0e2a932e8,
	"run/n200d5k5/forgy/mti/f64":           0x756df3d63be122ae,
	"dist/n200d5k5/forgy/mti/f64":          0x90814e081cbfe5b4,
	"run/n200d5k5/forgy/mti/f32":           0x21514e153df654b2,
	"dist/n200d5k5/forgy/mti/f32":          0x5fa9492871d146e4,
	"serial/n200d5k5/forgy/mti":            0x47b2be7e0602f4ae,
	"run/n200d5k5/forgy/ti/f64":            0x295e3b97237359e2,
	"dist/n200d5k5/forgy/ti/f64":           0x6e1a5f441a6b0650,
	"run/n200d5k5/forgy/ti/f32":            0x777b6e6592feae0e,
	"dist/n200d5k5/forgy/ti/f32":           0x473686f7ed63c678,
	"serial/n200d5k5/forgy/ti":             0xfba3063eed952be2,
	"run/n200d5k5/forgy/yinyang/f64":       0xd335f4053869d2bf,
	"dist/n200d5k5/forgy/yinyang/f64":      0x758ff00ad753a37d,
	"run/n200d5k5/forgy/yinyang/f32":       0xb213a37c5fa4828b,
	"dist/n200d5k5/forgy/yinyang/f32":      0x09629f0ff7617fb5,
	"serial/n200d5k5/forgy/yinyang":        0xa57abead028ba4bf,
	"run/n1200d32k1000/kmeans++/mti/f64":   0xf6c835d8f2af9d93,
	"run/n1200d32k1000/kmeans++/mti/f32":   0x5848b4ec326cda0e,
	"serial/n1200d32k1000/kmeans++/mti":    0xf6c835d8f2af9d93,
}

func TestTrainingGolden(t *testing.T) {
	checked := 0
	check := func(label string, res *kmeans.Result, err error) {
		t.Helper()
		checked++
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got := resultHash(res)
		if want, ok := trainingGoldens[label]; !ok || got != want {
			t.Errorf("%q: %#016x, // want %#016x", label, got, want)
		}
	}
	for _, sh := range goldenShapes {
		data := workload.Generate(workload.Spec{
			Kind: workload.NaturalClusters, N: sh.n, D: sh.d,
			Clusters: 10, Spread: 0.05, Seed: 7,
		})
		path := filepath.Join(t.TempDir(), "data.knor")
		if err := store.WriteDense(data, path, 8); err != nil {
			t.Fatal(err)
		}
		inits := []kmeans.Init{kmeans.InitKMeansPP}
		if sh.small {
			inits = append(inits, kmeans.InitForgy)
		}
		for _, in := range inits {
			for _, pr := range goldenPrunes {
				if !sh.small && pr != kmeans.PruneMTI {
					continue
				}
				cfg := kmeans.Config{
					K: sh.k, MaxIters: sh.it, Tol: -1, Init: in, Seed: 3,
					Threads: 1, TaskSize: 64, Prune: pr,
				}
				base := fmt.Sprintf("%s/%s/%s", sh.name, in, pr)
				for _, p := range goldenPrecs {
					res, err := kmeans.RunPrecision(data, cfg, p)
					check("run/"+base+"/f"+p.String(), res, err)
					if sh.small {
						dres, err := dist.RunPrecision(data, dist.Config{Machines: 2, Mode: dist.ModeKnord, Kmeans: cfg}, p)
						check("dist/"+base+"/f"+p.String(), dres, err)
					}
				}
				res, err := kmeans.RunSerial(data, cfg)
				check("serial/"+base, res, err)
				if in == kmeans.InitKMeansPP && sh.small {
					scfg := sem.Config{Kmeans: cfg, Devices: 4, PageCacheBytes: 1 << 16, RowCacheBytes: 1 << 18}
					scfg.Kmeans.Threads = 2
					res, err := sem.RunFile(path, scfg)
					check("sem/"+base, res, err)
				}
			}
		}
	}
	if checked != len(trainingGoldens) {
		t.Errorf("checked %d runs against %d goldens", checked, len(trainingGoldens))
	}
}
