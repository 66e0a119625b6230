package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// samples collects one op class's latencies. A failed or refused op is
// recorded as +Inf: it misses every latency limit.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()*1000) }
func (s *samples) addFailed()          { *s = append(*s, math.Inf(1)) }

// done counts the samples of ops that succeeded.
func (s samples) done() int {
	n := 0
	for _, v := range s {
		if !math.IsInf(v, 1) {
			n++
		}
	}
	return n
}

// rank is the nearest-rank index of percentile q (0 < q < 1) among n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// beyond is the number of samples above percentile q's rank.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

// tailOK reports whether percentile q is backed by at least minBeyond
// samples beyond it.
func tailOK(n int, q float64) bool { return n > 0 && beyond(n, q) >= minBeyond }

// percentile returns the nearest-rank percentile q in milliseconds.
func (s samples) percentile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c[rank(len(c), q)]
}

// tail returns percentile q when at least minBeyond samples lie beyond it;
// otherwise the highest percentile (in steps of one point) that has them,
// so a short run still reports an honest tail. used is the percentile
// actually reported.
func (s samples) tail(q float64) (v, used float64) {
	for ; q > 0.5 && !tailOK(len(s), q); q -= 0.01 {
	}
	if !tailOK(len(s), q) {
		q = 0.5
	}
	return s.percentile(q), q
}

// median of plain values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// rssSampler records a process's resident set every 100 ms. The median
// sample is steadier than the peak, which depends on where garbage
// collection happens to fall.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, ok := readRSS(pid); ok {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns its median sample in MB.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	return median(s.mb)
}

// readRSS returns VmRSS from /proc/<pid>/status in MB.
func readRSS(pid int) (float64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// tally counts a run's ops.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) ok()            { t.attempted++ }
func (t *tally) fail(err error) { t.attempted++; t.failed++; t.errs = append(t.errs, err.Error()) }
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// hostTimes reads the process's CPU time and the host's steal time (all
// CPUs, from /proc/stat), so a run can say how much of its wall time the
// hypervisor took away.
func hostTimes() (cpu, steal time.Duration) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
		if len(f) > 8 && f[0] == "cpu" {
			if j, err := strconv.ParseInt(f[8], 10, 64); err == nil {
				steal = time.Duration(j) * 10 * time.Millisecond // USER_HZ = 100
			}
		}
	}
	return cpu, steal
}
