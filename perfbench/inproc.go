package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"innsearch"
	"innsearch/internal/telemetry"
	"innsearch/internal/user"
)

// analyst wraps the simulated analyst and times the loop from the
// analyst's side: a view is "in hand" when SeparateCluster is entered,
// and the analyst's decision is made when it returns.
type analyst struct {
	policy innsearch.User
	spans  bool // time the decision and each preview (traced runs)

	start, last time.Time
	shown       int
	firstView   time.Duration
	views       samples // ms, every view but the first
	decideMS    samples
	previewUS   samples
	firstSeen   *innsearch.VisualProfile
	// abandon, when set, is called once the first view is in hand: the
	// analyst walks away and the session is canceled.
	abandon func()
}

func (a *analyst) SeparateCluster(p *innsearch.VisualProfile, preview func(float64) *innsearch.Region) innsearch.Decision {
	now := time.Now()
	if a.shown == 0 {
		a.firstView = now.Sub(a.start)
		a.firstSeen = p
		if a.abandon != nil {
			a.shown++
			a.abandon()
			return innsearch.Decision{Skip: true}
		}
	} else {
		a.views.addDur(now.Sub(a.last))
	}
	a.shown++
	d := a.decide(p, preview)
	a.last = time.Now()
	return d
}

// decide asks the simulated analyst, timing the decision and each preview
// when spans are on.
func (a *analyst) decide(p *innsearch.VisualProfile, preview func(float64) *innsearch.Region) innsearch.Decision {
	if !a.spans {
		return a.policy.SeparateCluster(p, preview)
	}
	start := time.Now()
	d := a.policy.SeparateCluster(p, func(tau float64) *innsearch.Region {
		t := time.Now()
		r := preview(tau)
		a.previewUS.add(float64(time.Since(t)) / float64(time.Microsecond))
		return r
	})
	a.decideMS.addDur(time.Since(start))
	return d
}

// sessionRun is one completed in-process session.
type sessionRun struct {
	res   *innsearch.Result
	trail *trail
	a     *analyst
	wall  time.Duration
	steps samples // ms per StepContext
	alloc uint64
	tr    *telemetry.Collector
}

func newAnalyst(seed int64, spans bool) (*analyst, error) {
	pol, err := user.NewPolicy("noisyhuman", user.PolicyConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &analyst{policy: pol, spans: spans}, nil
}

// runSession drives one session through the public API, timing it from
// NewSession until the result is in hand.
func runSession(ctx context.Context, ds *innsearch.Dataset, q []float64, a *analyst, cfg innsearch.Config, traced bool) (*sessionRun, error) {
	run := &sessionRun{trail: &trail{}, a: a}
	cfg.Observer = run.trail.observer()
	if traced {
		run.tr = telemetry.NewCollector()
		cfg.Tracer = run.tr
	}
	alloc0 := totalAlloc()
	a.start = time.Now()
	a.last = a.start
	sess, err := innsearch.NewSession(ds, q, a, cfg)
	if err != nil {
		return nil, err
	}
	for {
		t := time.Now()
		done, err := sess.StepContext(ctx)
		run.steps.addDur(time.Since(t))
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	run.res = sess.Result()
	run.wall = time.Since(a.start)
	run.alloc = totalAlloc() - alloc0
	return run, nil
}

// firstViewOnly opens a session, takes its first view and abandons it —
// the first-view samples that full sessions alone yield too few of. The
// session must end with the cancellation, and nothing else.
func firstViewOnly(ctx context.Context, ds *innsearch.Dataset, q query, cfg innsearch.Config) (time.Duration, error) {
	a, err := newAnalyst(q.analystSeed, false)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	a.abandon = cancel
	_, err = runSession(ctx, ds, ds.PointCopy(q.row), a, cfg, false)
	if !errors.Is(err, context.Canceled) || a.shown != 1 {
		return 0, fmt.Errorf("abandoned session: %d views, error %v", a.shown, err)
	}
	return a.firstView, nil
}

// firstViewRepeats is how many first-view-only sessions follow each full
// session of a round.
const firstViewRepeats = 3

// timedTotals accumulates the end-to-end figures of the timed phase.
type timedTotals struct {
	first, views samples // ms
	sessions     int
	shown        int
	wall         time.Duration
	alloc        uint64
}

func (t *timedTotals) add(r *sessionRun) {
	t.first.addDur(r.a.firstView)
	t.views = append(t.views, r.a.views...)
	t.sessions++
	t.shown += r.a.shown
	t.wall += r.wall
	t.alloc += r.alloc
}

func (t *timedTotals) sessionsPerSecond() float64 {
	return float64(t.sessions) / t.wall.Seconds()
}

// runInProcess runs the arb64 and axis20k workloads.
func runInProcess(ctx context.Context, b *bench) error {
	// The session runs on one goroutine (Workers 1), so a second P only
	// lets the collector run in parallel with it. On a host whose vCPUs
	// share one CPU of throughput (two copies of the host probe run at
	// half speed each), that parallel work takes its time from the
	// session at random moments; with one P it is interleaved, and the
	// timings of repeated runs agree far more closely.
	runtime.GOMAXPROCS(1)
	w := b.w
	path, gen, err := w.writeCSV(b.dataDir())
	if err != nil {
		return err
	}
	// Set-up: the dataset from CSV to ready, several times; the last load
	// serves the sessions.
	var ds *innsearch.Dataset
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t := time.Now()
		ds, err = innsearch.LoadCSV(path)
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		b.setup.add(time.Since(t).Seconds())
	}
	if err := sameData(gen, ds); err != nil {
		b.fail("set-up: %v", err)
	}
	queries := w.querySet(ds)
	support := min(max(w.cfg.Support, ds.Dim()), ds.N())

	// Warm-up: the first query, untimed. It is also the unscaled
	// reference of the scale probes.
	probe := queries[0]
	a, err := newAnalyst(probe.analystSeed, b.trace)
	if err != nil {
		return err
	}
	ref, err := runSession(ctx, ds, ds.PointCopy(probe.row), a, w.cfg, false)
	if err != nil {
		return fmt.Errorf("warm-up session: %w", err)
	}
	b.check(ref, ds, probe.row, support, "warm-up")
	scaled := make([]*innsearch.Dataset, len(scaleExponents))
	for i, e := range scaleExponents {
		if scaled[i], err = scaleDataset(ds, e); err != nil {
			return err
		}
	}

	perm := order(len(queries), b.seed)
	var untraced, traced timedTotals
	layers := newLayerAcc()
	rounds := 0
	cpu0 := cpuSelf()
	for {
		tracedRound := b.trace && rounds%2 == 1
		tot := &untraced
		if tracedRound {
			tot = &traced
		}
		for _, k := range perm {
			q := queries[k]
			a, err := newAnalyst(q.analystSeed, b.trace)
			if err != nil {
				return err
			}
			run, err := runSession(ctx, ds, ds.PointCopy(q.row), a, w.cfg, tracedRound)
			b.attempted++
			if err != nil {
				b.failed++
				b.fail("session row %d: %v", q.row, err)
				continue
			}
			tot.add(run)
			b.check(run, ds, q.row, support, fmt.Sprintf("row %d", q.row))
			if tracedRound {
				layers.addSession(run)
			}
			for i := 0; i < firstViewRepeats; i++ {
				b.attempted++
				fv, err := firstViewOnly(ctx, ds, q, w.cfg)
				if err != nil {
					b.failed++
					b.fail("row %d: %v", q.row, err)
					continue
				}
				tot.first.addDur(fv)
			}
		}
		rounds++
		elapsed := untraced.wall + traced.wall
		b.roundWalls.add(ms(elapsed) - b.roundWalls.sum())
		if b.enoughRounds(elapsed, rounds) {
			break
		}
	}

	cpu := cpuSelf() - cpu0

	// Scale probes, one pair per round so that every run attempts the
	// same mix of operations.
	for r := 0; r < rounds; r++ {
		for i, e := range scaleExponents {
			b.attempted++
			if msg := scaleProbe(ctx, scaled[i], probe, ref.res, w.cfg); msg != "" {
				b.failed++
				if r == 0 {
					b.note("scale probe 2^%+d: FAILED %s", e, msg)
				}
			} else if r == 0 {
				b.note("scale probe 2^%+d: ranked neighbours equal the unscaled session's", e)
			}
		}
	}
	b.rounds = rounds

	if !b.trace {
		b.endToEnd(&untraced, float64(untraced.alloc))
		return nil
	}
	b.note("traced rounds: %d sessions; untraced rounds: %d sessions", traced.sessions, untraced.sessions)
	if err := layers.kernelProbes(ctx, ds, ds.PointCopy(probe.row), ref.a.firstSeen, w.cfg.Mode == innsearch.ModeAxis, path, support); err != nil {
		return err
	}
	layers.set("telemetry.trace_overhead_pct", 100*(1-traced.sessionsPerSecond()/untraced.sessionsPerSecond()))
	layers.set("loadgen.cpu_ms_per_session", ms(cpu)/float64(untraced.sessions+traced.sessions))
	b.perLayer(layers)
	return nil
}

// check runs the independent output checks on one session.
func (b *bench) check(run *sessionRun, ds *innsearch.Dataset, row, support int, what string) {
	if err := checkSession(run.res, run.trail, ds.IDs(), ds.ID(row), support); err != nil {
		b.fail("%s: %v", what, err)
	}
	if run.a.shown != run.res.ViewsShown {
		b.fail("%s: the analyst saw %d views, the result reports %d", what, run.a.shown, run.res.ViewsShown)
	}
	b.checked++
}

// scaleExponents are the power-of-two factors of the scale probes.
// Scaling by a power of two is exact in IEEE arithmetic, so a scale-robust
// engine returns the same ranked neighbours at either scale.
var scaleExponents = []int{-900, 900}

func scaleDataset(ds *innsearch.Dataset, e int) (*innsearch.Dataset, error) {
	f := math.Ldexp(1, e)
	rows := make([][]float64, ds.N())
	labels := make([]int, ds.N())
	for i := range rows {
		p := ds.PointCopy(i)
		for j := range p {
			p[j] *= f
		}
		rows[i] = p
		labels[i] = ds.Label(i)
	}
	return innsearch.NewDataset(rows, labels)
}

// scaleProbe reruns the probe query on a scaled dataset with the same
// analyst and returns "" when its ranked neighbour IDs equal the
// reference's, else a description of the failure. A panic in the engine
// is recovered here, on the goroutine that drove the session, and
// reported as a failure.
func scaleProbe(ctx context.Context, ds *innsearch.Dataset, q query, ref *innsearch.Result, cfg innsearch.Config) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprintf("(%s) panic: %v in %s", classify(fmt.Sprint(r), string(debug.Stack())), r, panicFrame(string(debug.Stack())))
		}
	}()
	a, err := newAnalyst(q.analystSeed, false)
	if err != nil {
		return err.Error()
	}
	run, err := runSession(ctx, ds, ds.PointCopy(q.row), a, cfg, false)
	if err != nil {
		return fmt.Sprintf("(%s) %v", classify(err.Error(), ""), err)
	}
	got, want := neighborIDs(run.res), neighborIDs(ref)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			return fmt.Sprintf("(F2) no error, different answer: neighbours %v…, unscaled %v…; meaningful %v, unscaled %v",
				head(got, 6), head(want, 6), run.res.Diagnosis.Meaningful, ref.Diagnosis.Meaningful)
		}
	}
	return ""
}

// classify names the known scale fault a probe failure matches.
func classify(msg, stack string) string {
	switch {
	case strings.Contains(msg, "eigensolver did not converge"):
		return "F1"
	case strings.Contains(stack, "InterpAt"):
		return "F3"
	default:
		return "unexpected"
	}
}

// panicFrame returns the program frames that panicked, read from a stack
// dump taken in the deferred recover: the innsearch frames after the
// runtime's panic entry, innermost first, up to the session.
func panicFrame(stack string) string {
	lines := strings.Split(stack, "\n")
	var frames []string
	for i, l := range lines {
		if !strings.HasPrefix(l, "panic(") {
			continue
		}
		for _, f := range lines[i+1:] {
			if strings.HasPrefix(f, "innsearch/internal/") {
				fn := strings.TrimPrefix(f, "innsearch/internal/")
				frames = append(frames, fn[:strings.LastIndexByte(fn, '(')])
			}
			if strings.HasPrefix(f, "innsearch/internal/core.") || len(frames) == 4 {
				break
			}
		}
		break
	}
	if len(frames) == 0 {
		return "an unknown frame"
	}
	return strings.Join(frames, " ← ")
}

func head(s []int, n int) []int {
	if len(s) > n {
		return s[:n]
	}
	return s
}
