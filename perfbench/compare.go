package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare is the repeat-and-compare mode: two sets of runs of the same
// build and workload, alternating between the sets (A B, B A, A B, …) so
// that host drift falls on both alike. Set A uses seeds seed…seed+runs−1
// and set B the next runs seeds. For every end-to-end metric it prints
// each set's median and quartiles and says whether the sets agree within
// the metric's bound: each set's interquartile spread (Q3 − Q1, as a
// share of the median) within the bound, except for setup_s, and the
// second set's median no worse than the first's by more than the bound.
// The failed share of operations must be identical in every run.
func runCompare(name string, runs, seconds int, seed int64, specPath, buildDir string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Each run's full report is kept for reference next to the build.
	logDir := filepath.Join(buildDir, "compare")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	sets := [2][]result{}
	for i := 0; i < runs; i++ {
		for _, s := range [2]int{i % 2, 1 - i%2} {
			runSeed := seed + int64(s*runs+i)
			args := []string{"--workload", name, "--seed", strconv.FormatInt(runSeed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0", "--build", buildDir}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run %d of set %c (seed %d): %w", i+1, 'A'+s, runSeed, err)
			}
			logPath := filepath.Join(logDir, fmt.Sprintf("%s-%c%02d.txt", name, 'A'+s, i+1))
			if err := os.WriteFile(logPath, out, 0o644); err != nil {
				return err
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("run %d of set %c: last line: %w", i+1, 'A'+s, err)
			}
			sets[s] = append(sets[s], r)
			fmt.Fprintf(os.Stderr, "perfbench compare: set %c run %d seed %d: correct=%v attempted=%d failed=%d sessions_per_s=%.4f view_ms_p50=%.4f (%s)\n",
				'A'+s, i+1, runSeed, r.Correct, r.Attempted, r.Failed,
				r.Metrics["sessions_per_s"].Value, r.Metrics["view_ms_p50"].Value, logPath)
		}
	}

	agree := true
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "workload %s, %d runs per set, --seconds %d\n", name, runs, seconds)
	fmt.Fprintf(&buf, "%-22s %-5s %14s %14s %14s %8s %8s %8s  %s\n", "metric", "set", "Q1", "median", "Q3", "spread", "bound", "shift", "verdict")
	for _, m := range spec.EndToEnd {
		var med [2]float64
		var spread [2]float64
		for s := range sets {
			vals := make([]float64, 0, len(sets[s]))
			for _, r := range sets[s] {
				v, ok := r.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					return fmt.Errorf("metric %s (%s) missing from a run of set %c", m.Name, m.Unit, 'A'+s)
				}
				vals = append(vals, v.Value)
			}
			q := quartiles(vals)
			med[s] = median(vals)
			spread[s] = (q[2] - q[0]) / med[s]
			verdict := "ok"
			if m.Name != "setup_s" && spread[s] > m.Bound {
				verdict, agree = "SPREAD ABOVE BOUND", false
			} else if m.Name != "setup_s" && spread[s] > m.Bound/3 {
				verdict = "spread above a third of the bound"
			}
			shift := ""
			if s == 1 {
				worse := (med[1] - med[0]) / med[0]
				if m.Better == "higher" {
					worse = -worse
				}
				shift = fmt.Sprintf("%+.4f", worse)
				if worse > m.Bound {
					verdict, agree = "MEDIAN SHIFT ABOVE BOUND", false
				}
			}
			fmt.Fprintf(&buf, "%-22s %-5c %14.6g %14.6g %14.6g %8.4f %8.4f %8s  %s\n",
				m.Name, 'A'+s, q[0], med[s], q[2], spread[s], m.Bound, shift, verdict)
		}
		// Both sets together: the spread of all the runs made.
		var all []float64
		for s := range sets {
			for _, r := range sets[s] {
				all = append(all, r.Metrics[m.Name].Value)
			}
		}
		q := quartiles(all)
		fmt.Fprintf(&buf, "%-22s %-5s %14.6g %14.6g %14.6g %8.4f %8.4f\n",
			m.Name, "A+B", q[0], median(all), q[2], (q[2]-q[0])/median(all), m.Bound)
	}
	shares := map[string]bool{}
	for s := range sets {
		for _, r := range sets[s] {
			shares[fmt.Sprintf("%d/%d", r.Failed, r.Attempted)] = true
			if !r.Correct {
				agree = false
				fmt.Fprintf(&buf, "a run of set %c reported correct=false\n", 'A'+s)
			}
		}
	}
	fmt.Fprintf(&buf, "failed/attempted per run: %s\n", strings.Join(sortedKeys(shares), ", "))
	if !sameShare(sets) {
		agree = false
		fmt.Fprintln(&buf, "the failed share of operations differs between runs")
	}
	if agree {
		fmt.Fprintln(&buf, "verdict: the two sets agree within the bounds of", specPath)
	} else {
		fmt.Fprintln(&buf, "verdict: the two sets DO NOT agree within the bounds of", specPath)
	}
	fmt.Print(buf.String())
	return nil
}

// quartiles returns Q1, Q2, Q3 by the method of Python's
// statistics.quantiles(data, n=4) (the default, "exclusive" method).
func quartiles(vals []float64) [3]float64 {
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	ld := len(x)
	var out [3]float64
	if ld < 2 {
		for i := range out {
			out[i] = x[0]
		}
		return out
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		out[i-1] = (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return out
}

// median is Python's statistics.median: the mean of the middle two values
// of an even-sized sample.
func median(vals []float64) float64 {
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	n := len(x)
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// sameShare reports whether failed/attempted is exactly equal in every run.
func sameShare(sets [2][]result) bool {
	var ref *result
	for s := range sets {
		for i := range sets[s] {
			r := &sets[s][i]
			if ref == nil {
				ref = r
				continue
			}
			if r.Failed*ref.Attempted != ref.Failed*r.Attempted {
				return false
			}
		}
	}
	return ref != nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
