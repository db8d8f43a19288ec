package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// samples holds raw per-operation values. Quantiles are exact order
// statistics of these values (nearest rank), never interpolated, so a
// figure is always one that was actually measured.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

// quantile returns the nearest-rank p-quantile: the ⌈p·n⌉-th smallest
// value. It returns 0 for an empty sample.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hostProbe times a fixed scalar loop. It touches no program code, so a
// change in its figure between runs is drift of the host, not of the
// program. The result is reported for reference only.
func hostProbe() float64 {
	start := time.Now()
	x, acc := uint64(88172645463325252), 0.0
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x>>11) * 0x1p-53
	}
	hostSink = acc
	return ms(time.Since(start))
}

var hostSink float64

// cpuSelf returns the CPU time (user + system) this process has used.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOfExited returns the CPU time (user + system) an exited child
// process used over its whole life, from the rusage its wait returned.
func cpuOfExited(ps *os.ProcessState) time.Duration {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc returns the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
