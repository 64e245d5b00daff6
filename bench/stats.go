package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pct returns the nearest-rank p-th percentile (p in 1..100) of sorted
// samples: sorted[ceil(p·n/100)-1]. Integer arithmetic keeps the rank
// exact; beyond(n, p) samples lie above it.
func pct(sorted []float64, p int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := (p*n + 99) / 100
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n, p int) int { return n - (p*n+99)/100 }

// minTail is how many samples a reported tail percentile must have
// beyond it.
const minTail = 10

// tailPct returns the highest of the usual tail percentiles that has at
// least minTail samples beyond it out of n, or 0 when even the median
// has fewer.
func tailPct(n int) int {
	for _, p := range []int{99, 95, 90, 75, 50} {
		if beyond(n, p) >= minTail {
			return p
		}
	}
	return 0
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
