package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"innsearch"
	"innsearch/internal/synth"
)

// workload describes one benchmark input: the dataset, the fixed query
// set a round visits, and how sessions are run. Every seed below is a
// constant, so every run of a workload does identical work; --seed only
// permutes the order in which a round visits its queries.
type workload struct {
	name string
	// Dataset: projected clusters from synth.GenerateProjectedClusters.
	n, dim    int
	arbitrary bool
	dataSeed  int64
	// queries is the number of sessions per round; querySeed draws their
	// rows from the planted-cluster members and their analyst seeds.
	queries   int
	querySeed int64
	cfg       innsearch.Config
	// serve runs the sessions against a live innsearchd instead of
	// in-process.
	serve bool
}

var workloads = map[string]workload{
	// arb64: the eigensolver and the projected scans carry the session.
	"arb64": {
		name: "arb64", n: 2000, dim: 64, arbitrary: true, dataSeed: 20020612,
		queries: 9, querySeed: 64001,
		cfg: innsearch.Config{Mode: innsearch.ModeArbitrary, Workers: 1},
	},
	// axis20k: index, grid selection and covariance carry the session;
	// there is no eigensolve.
	"axis20k": {
		name: "axis20k", n: 20000, dim: 64, arbitrary: false, dataSeed: 20020612,
		queries: 8, querySeed: 20001,
		cfg: innsearch.Config{Mode: innsearch.ModeAxis, Index: innsearch.IndexConfig{Name: "vafile"}, Workers: 1},
	},
	// serve: the paper's Case 2 behind innsearchd -shards 2 -index vafile,
	// sessions in ModeAuto; the serving layers carry the cost.
	"serve": {
		name: "serve", n: 5000, dim: 20, arbitrary: true, dataSeed: 20020612,
		queries: 12, querySeed: 5001,
		serve: true,
	},
}

// query is one session of a round: a dataset row and the seed of the
// simulated analyst who answers its views.
type query struct {
	row         int
	analystSeed int64
}

// generate builds the workload's dataset. The generator is the paper's
// Case 1 (axis-parallel) or Case 2 (arbitrarily oriented) model: five
// 6-dimensional projected clusters, 5% uniform outliers, domain [0, 100],
// in-cluster σ = 2.
func (w workload) generate() (*synth.ProjectedData, error) {
	return synth.GenerateProjectedClusters(synth.ProjectedConfig{
		N:           w.n,
		Dim:         w.dim,
		Clusters:    5,
		SubspaceDim: 6,
		OutlierFrac: 0.05,
		Domain:      100,
		Spread:      2,
		Arbitrary:   w.arbitrary,
	}, rand.New(rand.NewSource(w.dataSeed)))
}

// writeCSV generates the dataset and writes it where set-up reads it.
func (w workload) writeCSV(dir string) (string, *innsearch.Dataset, error) {
	pd, err := w.generate()
	if err != nil {
		return "", nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, w.name+".csv")
	if err := pd.Data.SaveCSV(path); err != nil {
		return "", nil, fmt.Errorf("write %s: %w", path, err)
	}
	return path, pd.Data, nil
}

// querySet draws the workload's fixed queries: distinct rows that are
// members of a planted cluster, each with its own analyst seed.
func (w workload) querySet(ds *innsearch.Dataset) []query {
	rng := rand.New(rand.NewSource(w.querySeed))
	seen := make(map[int]bool)
	out := make([]query, 0, w.queries)
	for len(out) < w.queries {
		row := rng.Intn(ds.N())
		if seen[row] || ds.Label(row) == synth.OutlierLabel {
			continue
		}
		seen[row] = true
		out = append(out, query{row: row, analystSeed: rng.Int63()})
	}
	return out
}

// order returns the permutation of a round's queries for this seed.
func order(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// sameData reports whether two datasets hold bit-identical points and
// labels — the check that set-up read back exactly what was generated.
func sameData(a, b *innsearch.Dataset) error {
	if a.N() != b.N() || a.Dim() != b.Dim() {
		return fmt.Errorf("loaded %dx%d, generated %dx%d", b.N(), b.Dim(), a.N(), a.Dim())
	}
	for i := 0; i < a.N(); i++ {
		if a.Label(i) != b.Label(i) {
			return fmt.Errorf("row %d: label %d, generated %d", i, b.Label(i), a.Label(i))
		}
		pa, pb := a.Point(i), b.Point(i)
		for j := range pa {
			if pa[j] != pb[j] {
				return fmt.Errorf("row %d col %d: loaded %v, generated %v", i, j, pb[j], pa[j])
			}
		}
	}
	return nil
}
