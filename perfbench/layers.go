package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"innsearch"
	"innsearch/internal/dataset"
	"innsearch/internal/grid"
	"innsearch/internal/index"
	"innsearch/internal/kde"
	"innsearch/internal/linalg"
	"innsearch/internal/server/wire"
	"innsearch/internal/shard"
	"innsearch/internal/telemetry"
)

// perLayerMetrics lists every per-layer metric a traced run prints, in
// the order of BENCHMARK.json. A metric whose layer a workload does not
// exercise (the server layers in-process, the index on arb64) reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"linalg.sym_eigen_ms", "ms"},
	{"linalg.proj_dist_scan_ms", "ms"},
	{"linalg.project_rows_ms", "ms"},
	{"linalg.covariance_ms", "ms"},
	{"dataset.csv_read_ms", "ms"},
	{"dataset.store_build_ms", "ms"},
	{"dataset.view_stats_ms", "ms"},
	{"kde.estimate2d_ms", "ms"},
	{"kde.build_ms", "ms"},
	{"grid.find_region_us", "us"},
	{"grid.preview_us", "us"},
	{"grid.previews_per_view", "count"},
	{"grid.select_ms", "ms"},
	{"grid.cells_examined", "count"},
	{"core.step_ms", "ms"},
	{"core.projection_ms", "ms"},
	{"core.projection_stage_ms", "ms"},
	{"core.stages_per_view", "count"},
	{"core.view_residual_ms", "ms"},
	{"user.decide_ms", "ms"},
	{"index.vafile_build_ms", "ms"},
	{"index.vafile_derive_ms", "ms"},
	{"index.vafile_knn_axis_ms", "ms"},
	{"index.build_ms", "ms"},
	{"index.derive_ms", "ms"},
	{"index.candidate_gen_ms", "ms"},
	{"index.refine_ratio", "ratio"},
	{"index.cache_hit_ratio", "ratio"},
	{"shard.nearest_ms", "ms"},
	{"shard.gather_ms", "ms"},
	{"shard.scatters_per_view", "count"},
	{"server.create_ms", "ms"},
	{"server.decide_ms", "ms"},
	{"server.preview_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.view_build_ms", "ms"},
	{"server.cpu_ms_per_session", "ms"},
	{"wire.view_kb", "KB"},
	{"wire.view_encode_us", "us"},
	{"wire.view_decode_us", "us"},
	{"loadgen.cpu_ms_per_session", "ms"},
	{"telemetry.trace_overhead_pct", "%"},
}

// layerAcc gathers the per-layer figures of a traced run: the engine's
// own trace events, the benchmark's spans around public calls, and the
// kernel probes.
type layerAcc struct {
	values map[string]float64
	counts map[string]int

	projection, stage, kdeBuild, sel, build, derive, candGen, iteration samples // ms
	examined                                                            samples
	scanned, refined                                                    int
	views                                                               int
	steps, decide, preview                                              samples
	engineMS                                                            float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{values: map[string]float64{}, counts: map[string]int{}}
}

func (l *layerAcc) set(name string, v float64) { l.values[name] = v }

// setSample records a timing as the median of its raw samples and keeps
// the sample count for the report.
func (l *layerAcc) setSample(name string, s samples) {
	l.values[name] = s.median()
	l.counts[name] = len(s)
}

// addEvents folds one session's trace events into the layer samples.
func (l *layerAcc) addEvents(evs []telemetry.Event) {
	for _, e := range evs {
		switch e.Type {
		case telemetry.EventProjection:
			l.projection.add(e.DurationMS)
		case telemetry.EventProjectionStage:
			l.stage.add(e.DurationMS)
		case telemetry.EventKDEBuild:
			l.kdeBuild.add(e.DurationMS)
		case telemetry.EventSelect:
			l.sel.add(e.DurationMS)
			l.examined.add(float64(e.Examined))
		case telemetry.EventIndexBuild:
			l.build.add(e.DurationMS)
		case telemetry.EventIndexDerive:
			l.derive.add(e.DurationMS)
		case telemetry.EventCandidateGen:
			l.candGen.add(e.DurationMS)
			l.scanned += e.Scanned
			l.refined += e.Refined
		case telemetry.EventIteration:
			l.iteration.add(e.DurationMS)
		}
	}
}

// addSession folds one traced in-process session: its events, its step
// spans, and the analyst's spans. The session's engine time is its wall
// time less the time the analyst held the views.
func (l *layerAcc) addSession(run *sessionRun) {
	l.addEvents(run.tr.Events())
	l.steps = append(l.steps, run.steps...)
	l.decide = append(l.decide, run.a.decideMS...)
	l.preview = append(l.preview, run.a.previewUS...)
	l.views += run.a.shown
	l.engineMS += ms(run.wall) - run.a.decideMS.sum()
}

// finish derives the traced metrics. engineMS > 0 also derives the
// ledger: per view, engine time = projection + KDE + select + residual.
func (l *layerAcc) finish(b *bench) {
	l.setSample("kde.build_ms", l.kdeBuild)
	l.setSample("grid.select_ms", l.sel)
	l.set("grid.cells_examined", l.examined.mean())
	l.setSample("core.projection_ms", l.projection)
	l.setSample("core.projection_stage_ms", l.stage)
	l.setSample("index.build_ms", l.build)
	l.setSample("index.derive_ms", l.derive)
	l.setSample("index.candidate_gen_ms", l.candGen)
	if l.scanned > 0 {
		l.set("index.refine_ratio", float64(l.refined)/float64(l.scanned))
	}
	if len(l.steps) > 0 {
		l.setSample("core.step_ms", l.steps)
	} else {
		l.setSample("core.step_ms", l.iteration)
	}
	l.setSample("user.decide_ms", l.decide)
	l.setSample("grid.preview_us", l.preview)
	if l.views > 0 {
		v := float64(l.views)
		l.set("grid.previews_per_view", float64(len(l.preview))/v)
		l.set("core.stages_per_view", float64(len(l.stage))/v)
	}
	if l.engineMS > 0 && l.views > 0 {
		v := float64(l.views)
		proj, kd, sel := l.projection.sum()/v, l.kdeBuild.sum()/v, l.sel.sum()/v
		engine := l.engineMS / v
		residual := engine - proj - kd - sel
		l.set("core.view_residual_ms", residual)
		b.note("view engine ledger (ms per view, %d views): engine %.4f = projection %.4f + kde %.4f + select %.4f + residual %.4f",
			l.views, engine, proj, kd, sel, residual)
	}
}

// kernelProbes times direct calls into single layers on inputs shaped
// like the workload's first view: the s full-space nearest rows of the
// query (the first view's members), a d/2-dimensional subspace, and the
// first view's 2-D profile. The first failing call ends the probes.
func (l *layerAcc) kernelProbes(ctx context.Context, ds *innsearch.Dataset, q []float64, first *innsearch.VisualProfile, axis bool, csvPath string, support int) error {
	n, d := ds.N(), ds.Dim()
	var err error
	probe := func(name string, fn func() error) {
		if err != nil {
			return
		}
		var s samples
		if s, err = timeCalls(fn); err != nil {
			err = fmt.Errorf("%s probe: %w", name, err)
			return
		}
		if strings.HasSuffix(name, "_us") {
			for i := range s {
				s[i] *= 1000
			}
		}
		l.setSample(name, s)
	}

	members := nearestRows(ds, q, support)
	mm := linalg.NewMatrix(len(members), d)
	for i, r := range members {
		copy(mm.Row(i), ds.Point(r))
	}
	var cov *linalg.Matrix
	probe("linalg.covariance_ms", func() (err error) {
		cov, err = mm.CovarianceContext(ctx, 0)
		return err
	})
	var eig *linalg.EigenResult
	probe("linalg.sym_eigen_ms", func() (err error) {
		eig, err = linalg.SymEigen(cov)
		return err
	})
	if err != nil {
		return err
	}
	// The subspace: in ModeAxis the d/2 attributes of least member
	// variance, else the d/2 eigenvectors of least variance — the
	// directions in which the query's cluster is tight.
	var sub *linalg.Subspace
	axes := make([]int, d/2)
	if axis {
		axes = lowVarianceAxes(cov, d/2)
		sub, err = linalg.AxisSubspace(d, axes)
	} else {
		span := make([]linalg.Vector, d/2)
		for i := range span {
			span[i] = eig.Vectors[i]
			axes[i] = i
		}
		sub, err = linalg.NewSubspace(d, span)
	}
	if err != nil {
		return fmt.Errorf("probe subspace: %w", err)
	}
	qp := sub.Project(q)
	probe("linalg.proj_dist_scan_ms", func() error {
		var s float64
		for i := 0; i < n; i++ {
			s += sub.ProjDistTo(qp, ds.Point(i))
		}
		hostSink = s
		return nil
	})
	dst := linalg.NewMatrix(n, sub.Dim())
	probe("linalg.project_rows_ms", func() error {
		return sub.ProjectRowsInto(ctx, 0, dst, n, ds.Point)
	})
	probe("dataset.view_stats_ms", func() error {
		// A fresh identity view each call: View.Stats memoizes.
		v, err := ds.Store().Partition(1)
		if err != nil {
			return err
		}
		_, err = v[0].Stats(ctx, 0)
		return err
	})
	raw, rerr := os.ReadFile(csvPath)
	if rerr != nil {
		return rerr
	}
	probe("dataset.csv_read_ms", func() error {
		_, err := dataset.ReadCSV(bytes.NewReader(raw))
		return err
	})
	rows := make([][]float64, n)
	labels := make([]int, n)
	for i := range rows {
		rows[i] = ds.PointCopy(i)
		labels[i] = ds.Label(i)
	}
	probe("dataset.store_build_ms", func() error {
		_, err := dataset.New(rows, labels)
		return err
	})
	probe("kde.estimate2d_ms", func() error {
		_, err := kde.Estimate2D(first.Points, kde.Options{GridSize: first.Grid.P})
		return err
	})
	probe("grid.find_region_us", func() error {
		_, err := grid.FindRegion(first.Grid, first.QueryX, first.QueryY, 0.5*first.QueryDensity)
		return err
	})

	var va index.Backend
	probe("index.vafile_build_ms", func() (err error) {
		if va, err = index.New("vafile"); err != nil {
			return err
		}
		return va.Build(ctx, ds.View(), index.Options{})
	})
	if err != nil {
		return err
	}
	// The derive probe narrows to every other row, the shape of a view
	// pruned by a major iteration.
	childRows := make([]int, 0, n/2)
	for i := 0; i < n; i += 2 {
		childRows = append(childRows, i)
	}
	child, err := ds.View().Narrow(childRows)
	if err != nil {
		return err
	}
	probe("index.vafile_derive_ms", func() error {
		_, err := va.(index.Deriver).Derive(ctx, va, child, childRows)
		return err
	})
	qaxis := make([]float64, len(axes))
	for j, a := range axes {
		qaxis[j] = q[a]
	}
	probe("index.vafile_knn_axis_ms", func() error {
		_, _, err := va.(index.AxisSearcher).KNNAxis(ctx, qaxis, axes, support)
		return err
	})
	// One shard window of a two-way partition, as innsearchd -shards 2
	// scans it.
	win := shard.NewLocal(0, 0, n/2, ds.View(), nil)
	probe("shard.nearest_ms", func() error {
		_, err := win.Nearest(ctx, sub, qp, support)
		return err
	})

	var enc []byte
	probe("wire.view_encode_us", func() (err error) {
		enc, err = json.Marshal(wire.FromProfile(first))
		return err
	})
	l.set("wire.view_kb", float64(len(enc))/1000)
	probe("wire.view_decode_us", func() error {
		_, err := decodeProfile(enc)
		return err
	})
	return err
}

// A kernel probe makes at least probeMinRuns calls, and more while it has
// run for less than probeBudget; it reports the median call.
const (
	probeMinRuns = 7
	probeBudget  = 150 * time.Millisecond
)

func timeCalls(fn func() error) (samples, error) {
	var s samples
	start := time.Now()
	for len(s) < probeMinRuns || time.Since(start) < probeBudget {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		s.addDur(time.Since(t))
	}
	return s, nil
}

// nearestRows returns the k rows nearest to q in full space, by a plain
// scan independent of the engine.
func nearestRows(ds *innsearch.Dataset, q []float64, k int) []int {
	type rd struct {
		row  int
		dist float64
	}
	all := make([]rd, ds.N())
	for i := range all {
		var s float64
		for j, v := range ds.Point(i) {
			s += (v - q[j]) * (v - q[j])
		}
		all[i] = rd{i, s}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].dist != all[b].dist {
			return all[a].dist < all[b].dist
		}
		return all[a].row < all[b].row
	})
	out := make([]int, min(k, len(all)))
	for i := range out {
		out[i] = all[i].row
	}
	return out
}

// lowVarianceAxes returns the k attributes of least variance among the
// members, the axes along which an axis-parallel cluster is tight.
func lowVarianceAxes(cov *linalg.Matrix, k int) []int {
	d := cov.Rows
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cov.At(idx[a], idx[a]) < cov.At(idx[b], idx[b]) })
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}

// decodeProfile is the client's half of a view: JSON to the engine's
// in-memory profile.
func decodeProfile(raw []byte) (*innsearch.VisualProfile, error) {
	var p wire.Profile
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	return p.ToProfile(), nil
}

// metricsOut renders the per-layer metrics in BENCHMARK.json's order.
func (l *layerAcc) metricsOut() map[string]metric {
	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		v := l.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}
