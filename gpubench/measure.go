package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples a reported tail quantile must leave
// above it; a quantile with fewer is an anecdote, not a tail.
const minBeyond = 10

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (the R-7 / numpy default).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// beyond counts the samples of n that lie above the q-quantile.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// Tail is a reported tail latency: which quantile was used, its value,
// and the sample count behind it.
type Tail struct {
	Label  string  `json:"quantile"`
	Value  float64 `json:"value"`
	N      int     `json:"samples"`
	Beyond int     `json:"beyond"`
}

// tailOf picks the highest of p99 and p90 that leaves at least
// minBeyond samples above it. A sample too small for p90 falls back to
// the highest quantile that still does (1 - minBeyond/n), and one of
// minBeyond samples or fewer to the median.
func tailOf(xs []float64) Tail {
	s := sortedCopy(xs)
	n := len(s)
	q := 0.5
	switch {
	case beyond(n, 0.99) >= minBeyond:
		q = 0.99
	case beyond(n, 0.90) >= minBeyond:
		q = 0.90
	case n > 2*minBeyond:
		q = 1 - float64(minBeyond)/float64(n)
	}
	return Tail{
		Label:  fmt.Sprintf("p%g", math.Round(q*1000)/10),
		Value:  quantile(s, q),
		N:      n,
		Beyond: beyond(n, q),
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// validName reports whether s may name a metric: a letter or digit
// first, then at most 63 more of [A-Za-z0-9_.-].
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && (i == 0 || r != '_' && r != '.' && r != '-') {
			return false
		}
	}
	return true
}

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics is an output metric set; set refuses a malformed name or a
// non-finite value so a bad number fails the run instead of printing.
type Metrics map[string]Metric

func (m Metrics) set(name, unit string, v float64) {
	if !validName(name) {
		panic(fmt.Sprintf("gpubench: invalid metric name %q", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("gpubench: metric %s is %v", name, v))
	}
	m[name] = Metric{Value: v, Unit: unit}
}

// usage is a process-wide resource snapshot: CPU time and bytes
// allocated by the Go heap.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// residentSampler tracks the peak memory the Go runtime holds from the
// OS (mapped minus released) through a timed window, sampled every
// 10 ms. It stands for the process's resident set during the window. The
// kernel's lifetime high-water mark is not used: it is set by whichever
// allocation burst of set-up the garbage collector happened to lag
// behind, and swung by half from run to run on svc-mixed.
type residentSampler struct {
	stop, done chan struct{}
	peak       uint64
}

// startResident collects garbage and returns freed memory to the OS, so
// the window starts from what is live, then starts sampling.
func startResident() *residentSampler {
	runtime.GC()
	debug.FreeOSMemory()
	r := &residentSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		samples := []rmetrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			rmetrics.Read(samples)
			r.peak = max(r.peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// peakMB stops sampling and returns the peak in MiB.
func (r *residentSampler) peakMB() float64 {
	close(r.stop)
	<-r.done
	return float64(r.peak) / (1 << 20)
}

// Host records where a result was measured.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo(commit string) Host {
	if commit == "" {
		commit = "unknown"
	}
	return Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
