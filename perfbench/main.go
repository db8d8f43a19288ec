// Command perfbench is the benchmark of the interactive search loop. For
// one workload it drives the real public API — in-process sessions, or a
// live innsearchd over HTTP — checks every answer against independent
// computations, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of its output:
//
//	{"correct": true, "attempted": 76, "failed": 4, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload arb64 --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --compare --workload arb64 --runs 10 --seconds 30
//
// The second form is the repeat-and-compare mode (see compare.go). The
// workloads and metrics are described in README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	w        workload
	seed     int64
	seconds  time.Duration
	trace    bool
	buildDir string
	daemon   string

	setup     samples // s
	attempted int
	failed    int
	checked   int
	rounds    int
	// roundWalls is the timed wall of each round in ms, for the report.
	roundWalls samples
	problems   []string
	notes      []string
	metrics    map[string]metric
}

func (b *bench) dataDir() string { return filepath.Join(b.buildDir, "data") }

// fail records a failed output check: the run reports correct=false.
func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// note adds a line to the run's report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// enoughRounds reports whether the timed phase ends after these rounds.
// It ends at the whole number of rounds that brings it nearest to
// --seconds, so that a host a little faster or slower than usual does not
// flip a run between two and three rounds. A traced run ends on an even
// number of rounds, half of them traced.
func (b *bench) enoughRounds(elapsed time.Duration, rounds int) bool {
	step := 1
	if b.trace {
		step = 2
	}
	if rounds%step != 0 {
		return false
	}
	next := elapsed / time.Duration(rounds) * time.Duration(step)
	return elapsed+next/2 >= b.seconds
}

// endToEnd derives the end-to-end metrics of an untraced run and notes
// the sample count behind each timing.
func (b *bench) endToEnd(t *timedTotals, allocBytes float64) {
	b.metrics = map[string]metric{
		"setup_s":              {b.setup.median(), "s"},
		"sessions_per_s":       {t.sessionsPerSecond(), "1/s"},
		"first_view_ms_p50":    {t.first.median(), "ms"},
		"view_ms_p50":          {t.views.median(), "ms"},
		"view_ms_p99":          {t.views.quantile(0.99), "ms"},
		"views_per_session":    {float64(t.shown) / float64(t.sessions), "count"},
		"alloc_mb_per_session": {allocBytes / float64(t.sessions) / 1e6, "MB"},
	}
	b.note("samples: setup_s n=%d; first_view_ms_p50 n=%d; view_ms_p50/p99 n=%d; sessions_per_s over %d sessions in %.3f s",
		len(b.setup), len(t.first), len(t.views), t.sessions, t.wall.Seconds())
}

// perLayer finishes the traced figures and notes the sample counts.
func (b *bench) perLayer(l *layerAcc) {
	l.finish(b)
	b.metrics = l.metricsOut()
	names := make([]string, 0, len(l.counts))
	for name := range l.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s n=%d", name, l.counts[name])
	}
	b.note("samples: %s", strings.Join(parts, "; "))
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: arb64, axis20k or serve")
		seed     = flag.Int64("seed", 1, "seed of the run (orders each round's sessions)")
		seconds  = flag.Int("seconds", 20, "timed-phase length; the run ends at the nearest whole number of rounds")
		trace    = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
		buildDir = flag.String("build", ".bench_build", "directory for generated data, logs and the daemon binary")
		compare  = flag.Bool("compare", false, "repeat-and-compare mode: two alternating sets of runs")
		runs     = flag.Int("runs", 10, "runs per set in -compare mode")
		spec     = flag.String("bench", "BENCHMARK.json", "benchmark definition whose bounds -compare checks")
	)
	flag.Parse()
	if *compare {
		if err := runCompare(*name, *runs, *seconds, *seed, *spec, *buildDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want arb64, axis20k or serve)\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	b := &bench{
		w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		buildDir: *buildDir, daemon: filepath.Join(*buildDir, "innsearchd"),
	}
	hostBefore := hostProbe()
	ctx := context.Background()
	var err error
	if w.serve {
		err = runServe(ctx, b)
	} else {
		err = runInProcess(ctx, b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	hostAfter := hostProbe()

	fmt.Printf("perfbench: workload %s seed %d trace %v: %d rounds, %d operations attempted, %d failed, %d sessions checked\n",
		w.name, b.seed, b.trace, b.rounds, b.attempted, b.failed, b.checked)
	fmt.Printf("perfbench: host probe (fixed scalar loop, reference only): %.3f ms before, %.3f ms after\n", hostBefore, hostAfter)
	fmt.Printf("perfbench: timed wall per round (ms): %.1f\n", b.roundWalls)
	for _, n := range b.notes {
		fmt.Println("perfbench:", n)
	}
	for _, p := range b.problems {
		fmt.Println("perfbench: CHECK FAILED:", p)
	}
	out, err := json.Marshal(result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
