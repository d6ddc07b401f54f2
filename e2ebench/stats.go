package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"repro/internal/gf"
)

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes returns the process's peak resident set size.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// machineRow measures the two bandwidths decode work is bounded by on this
// machine: gf.XORSlice and memmove (copy), both over 1 KiB packets in a
// 1 MiB arena, the shape of a decoder's payload work. Reported with every
// run so figures from different machines and commits can be compared.
func machineRow() (xorGBps, copyGBps float64) {
	const pkt, arena = 1024, 1 << 20
	dst, src := make([]byte, arena), make([]byte, arena)
	fillBytes(src, 1)
	xor := func() {
		for off := 0; off < arena; off += pkt {
			gf.XORSlice(dst[off:off+pkt], src[off:off+pkt])
		}
	}
	cp := func() {
		for off := 0; off < arena; off += pkt {
			copy(dst[off:off+pkt], src[off:off+pkt])
		}
	}
	return bandwidth(xor, arena), bandwidth(cp, arena)
}

// bandwidth runs pass in seven trials of about 20 ms each and returns the
// best rate in GB/s: the machine's peak, which neighbours on a shared
// host can only lower.
func bandwidth(pass func(), bytes int) float64 {
	rates := make([]float64, 0, 7)
	for trial := 0; trial < 7; trial++ {
		n, start := 0, time.Now()
		for time.Since(start) < 20*time.Millisecond {
			pass()
			n++
		}
		rates = append(rates, float64(n*bytes)/time.Since(start).Seconds()/1e9)
	}
	sort.Float64s(rates)
	return rates[len(rates)-1]
}
