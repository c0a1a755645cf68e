package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between the two closest ranks (the
// "inclusive" definition: the minimum is q=0 and the maximum q=1).
// An empty slice has no quantile and yields NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// windowOf sorts a phase's ops into `windows` equal stretches of
// [start, end) by when each ended; ops still in flight at end count in
// the last stretch.
func (p *phase) windowOf(i int) int {
	span := p.end.Sub(p.start)
	if span <= 0 {
		return 0
	}
	w := int(int64(windows) * int64(p.ends[i].Sub(p.start)) / int64(span))
	return min(max(w, 0), windows-1)
}

// windowedQuantile is the median, over the phase's `windows` stretches
// that completed ops, of the q-quantile of the latencies of the ops
// that ended in each. A burst of machine noise (a steal episode, a
// neighbour thrashing the shared cache) that covers fewer than half of
// the stretches leaves it where the rest of the run puts it, while a
// change in the program moves every stretch. An empty phase yields NaN.
func (p *phase) windowedQuantile(q float64) float64 {
	per := make([][]float64, windows)
	for i, l := range p.lat {
		w := p.windowOf(i)
		per[w] = append(per[w], l)
	}
	qs := make([]float64, 0, windows)
	for _, xs := range per {
		if len(xs) > 0 {
			qs = append(qs, quantile(sortedCopy(xs), q))
		}
	}
	return median(qs)
}

// windowCounts is how many ops ended in each of the phase's stretches.
func (p *phase) windowCounts() []int {
	n := make([]int, windows)
	for i := range p.lat {
		n[p.windowOf(i)]++
	}
	return n
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5-quantile of an unsorted slice.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tail reports the highest percentile (as a whole percent) of n
// samples that still has at least ten samples beyond it, capped at p99
// — the tail a run of that size can support.
func tail(n int) int {
	for _, pct := range []int{99, 95, 90, 75} {
		if n*(100-pct) >= 10*100 {
			return pct
		}
	}
	return 50
}

// usage is a point-in-time reading of the process counters the
// end-to-end metrics are deltas of.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system CPU of the whole process
	mallocs uint64        // cumulative heap allocations (runtime.MemStats.Mallocs)
	rt      [4]float64    // runtimeSamples, in order
	stat    cpuStat
}

// runtimeSamples are the runtime/metrics series behind the runtime.*
// per-layer metrics.
var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readUsage() usage {
	u := usage{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs = ms.Mallocs
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			u.rt[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			u.rt[i] = s.Value.Float64()
		}
	}
	u.stat = readCPUStat()
	return u
}

// delta is what happened to the process between two readings.
type delta struct {
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	gcCycles  float64
	gcCPU     float64 // seconds
	totalCPU  float64 // seconds, as the runtime accounts it
	allocB    float64
	stealFrac float64 // share of all CPU time the hypervisor stole, machine-wide
}

func diff(a, b usage) delta {
	return delta{
		wall:      b.at.Sub(a.at),
		cpu:       b.cpu - a.cpu,
		mallocs:   b.mallocs - a.mallocs,
		gcCycles:  b.rt[0] - a.rt[0],
		gcCPU:     b.rt[1] - a.rt[1],
		totalCPU:  b.rt[2] - a.rt[2],
		allocB:    b.rt[3] - a.rt[3],
		stealFrac: a.stat.stealSince(b.stat),
	}
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
	ok           bool
}

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	return parseCPUStat(string(line))
}

// parseCPUStat reads "cpu user nice system idle iowait irq softirq
// steal guest guest_nice". Guest time is already inside user and nice,
// so it is left out of the total.
func parseCPUStat(line string) cpuStat {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	st.ok = true
	return st
}

func (a cpuStat) stealSince(b cpuStat) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line")
}

// calibrate times a fixed CPU-bound loop of the benchmark's own code
// (the median of five), so a run on a slowed or contended machine can
// be recognised afterwards: the figure rises with the host's load
// while the work stays the same.
func calibrate() time.Duration {
	times := make([]float64, 5)
	var sink uint64
	for i := range times {
		r := newSplitmix(uint64(i))
		start := time.Now()
		for j := 0; j < 1<<22; j++ {
			sink += r.next()
		}
		times[i] = float64(time.Since(start))
	}
	if sink == 1 {
		return 0 // keeps the loop from being optimised away
	}
	return time.Duration(median(times))
}

// timerCost calibrates what one time.Now/time.Since pair costs, so
// per-call spans around calls too short to time on their own can have
// it subtracted.
func timerCost() time.Duration {
	const n = 200000
	var sink time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	el := time.Since(start)
	_ = sink
	return el / n
}
