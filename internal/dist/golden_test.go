package dist

import (
	"math"
	"testing"

	"knor/internal/kmeans"
)

// simGoldens pin the simulated cost model: SimSeconds, every
// per-iteration SimSeconds (as float64 bits) and MemoryBytes of each
// mode on 1-4 machines, as produced by the original single-process
// cluster loop. Simulated time is deterministic, so any change to how
// the runner charges compute or collectives shows up here bit for bit.
var simGoldens = []struct {
	mode    Mode
	prune   kmeans.Prune
	m       int
	sim     uint64
	mem     uint64
	perIter []uint64
}{
	{ModeKnord, kmeans.PruneNone, 1, 0x3f104f2340dc450d, 32224, []uint64{0x3ef1f426e173d66f, 0x3eefa2b29cf5c492, 0x3eef7c0b022b6d2c, 0x3eef720ea4d949cc}},
	{ModeKnord, kmeans.PruneNone, 2, 0x3f406c3c4b957158, 33248, []uint64{0x3f2085710dda73ec, 0x3f20650205f979d0, 0x3f206365b4dbb62a, 0x3f20631865a6217a}},
	{ModeKnord, kmeans.PruneNone, 3, 0x3f4d571a6c70ad98, 34272, []uint64{0x3f2d66cfcd2d5f4f, 0x3f2d53057542d82d, 0x3f2d518810a0e998, 0x3f2d510c5eb1954c}},
	{ModeKnord, kmeans.PruneNone, 4, 0x3f552590048ad204, 35296, []uint64{0x3f352b346a4d7cf9, 0x3f352444e0321db1, 0x3f352376b7a33be0, 0x3f35235010087186}},
	{ModeKnord, kmeans.PruneMTI, 1, 0x3f07895b1e63e233, 37152, []uint64{0x3ef21c6acd5bf176, 0x3ee5a8b2060f1d30, 0x3ee26cd7284c4da4, 0x3ee1d70db07c3b0c}},
	{ModeKnord, kmeans.PruneMTI, 2, 0x3f402e9c736c7ca2, 38304, []uint64{0x3f2087f54c98f59c, 0x3f2020fe39d5e40c, 0x3f200c322f38c2a4, 0x3f20054c180a563c}},
	{ModeKnord, kmeans.PruneMTI, 3, 0x3f4d2fc998e4411d, 39456, []uint64{0x3f2d687d4c570b1a, 0x3f2d24cf666efe1a, 0x3f2d198c9e3a9fd8, 0x3f2d184d12905b68}},
	{ModeKnord, kmeans.PruneMTI, 4, 0x3f551bf827cb2320, 40608, []uint64{0x3f352bd579fd1d65, 0x3f351849d6f13f35, 0x3f35161aa2874776, 0x3f3515a6abb6e870}},
	{ModeMPI, kmeans.PruneNone, 1, 0x3f0f9727acf5ca77, 32224, []uint64{0x3ef153852552d1b2, 0x3eeedbd73989cfd0, 0x3eedafd6566a4330, 0x3eef29e6d93d7378}},
	{ModeMPI, kmeans.PruneNone, 2, 0x3f40692c08c2b205, 33248, []uint64{0x3f2085710dda73ec, 0x3f205d43776839e8, 0x3f206727c7767ea8, 0x3f205ad3d6519b98}},
	{ModeMPI, kmeans.PruneNone, 3, 0x3f4d519a1a93d090, 34272, []uint64{0x3f2d600532deccc1, 0x3f2d4b678afb6af5, 0x3f2d518810a0e99a, 0x3f2d49739bd420f0}},
	{ModeMPI, kmeans.PruneNone, 4, 0x3f55269d4febdc32, 35296, []uint64{0x3f352b346a4d7cf9, 0x3f35287a0db64669, 0x3f352376b7a33be0, 0x3f35235010087186}},
	{ModeMPI, kmeans.PruneMTI, 1, 0x3f0693b5ecf0e07a, 37152, []uint64{0x3ef17bc9113aecb9, 0x3ee55113fc88bd82, 0x3ee089fa900a96e0, 0x3ee17c3704ba5414}},
	{ModeMPI, kmeans.PruneMTI, 2, 0x3f402c6961730a42, 38304, []uint64{0x3f2087f54c98f59c, 0x3f20193c3ba8a8e8, 0x3f200a8667dd1476, 0x3f2005ed95ad760e}},
	{ModeMPI, kmeans.PruneMTI, 3, 0x3f4d291108889585, 39456, []uint64{0x3f2d61b2b208788c, 0x3f2d19ecd34a1a4a, 0x3f2d198c9e3a9fd6, 0x3f2d0f17fe952368}},
	{ModeMPI, kmeans.PruneMTI, 4, 0x3f551c0955d70b47, 40608, []uint64{0x3f352bd579fd1d65, 0x3f35188e8f20dfd1, 0x3f35161aa2874776, 0x3f3515a6abb6e870}},
	{ModeMLlib, kmeans.PruneNone, 1, 0x3f73c89a6baf2e30, 176224, []uint64{0x3f53c62bc1fc6e90, 0x3f53e0cf1792b442, 0x3f5360f8bad2a97e, 0x3f541a761a5aec70}},
	{ModeMLlib, kmeans.PruneNone, 2, 0x3f6b16b7137e1625, 177248, []uint64{0x3f4b4e44c95eb839, 0x3f4ac6bb08c85e05, 0x3f4b7fbd5b4e8bde, 0x3f4ac61f2082b678}},
	{ModeMLlib, kmeans.PruneNone, 3, 0x3f68a2f7c02f2321, 178272, []uint64{0x3f48a160967b5855, 0x3f489be0449e7b4f, 0x3f48b2e4889f07e8, 0x3f489bb99d03b0f8}},
	{ModeMLlib, kmeans.PruneNone, 4, 0x3f65348ea50f416d, 179296, []uint64{0x3f45191d26ea19e2, 0x3f458ee13ed59fba, 0x3f45151e173ea60c, 0x3f45151e173ea60c}},
}

func TestSimulatedTimeGolden(t *testing.T) {
	data := testData(600, 6, 4, 23)
	for _, g := range simGoldens {
		kc := baseCfg(4)
		kc.Threads = 1
		kc.Tol = -1
		kc.MaxIters = 4
		kc.Prune = g.prune
		cfg := Config{Machines: g.m, Mode: g.mode, Kmeans: kc}
		if g.mode == ModeMLlib {
			cfg.MLlibTaskOverhead = 1e-5
		}
		res, err := Run(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := g.mode.String() + "/" + g.prune.String() + "/m=" + string(rune('0'+g.m))
		if got := math.Float64bits(res.SimSeconds); got != g.sim {
			t.Errorf("%s: SimSeconds bits %#016x (%g), want %#016x (%g)",
				label, got, res.SimSeconds, g.sim, math.Float64frombits(g.sim))
		}
		if res.MemoryBytes != g.mem {
			t.Errorf("%s: MemoryBytes %d, want %d", label, res.MemoryBytes, g.mem)
		}
		if len(res.PerIter) != len(g.perIter) {
			t.Fatalf("%s: %d iterations, want %d", label, len(res.PerIter), len(g.perIter))
		}
		for i, st := range res.PerIter {
			if got := math.Float64bits(st.SimSeconds); got != g.perIter[i] {
				t.Errorf("%s: iteration %d SimSeconds bits %#016x, want %#016x", label, i, got, g.perIter[i])
			}
		}
	}
}
