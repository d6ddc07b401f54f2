package main

import "math"

// lossFilter is the benchmark's injected receive-side loss. It sits
// between the receive call and the client engine and drops a packet when
// a hash of (seed, source, layer, serial) falls below the loss rate. The
// decision depends on nothing the scheduler or the kernel controls, so
// while the kernel drops nothing the decoder of one seed is handed the
// same index sequence on every run.
type lossFilter struct {
	key       uint64
	threshold uint64 // drop when the hash is below it; 0 = no loss
}

func newLossFilter(seed uint64, rate float64) lossFilter {
	f := lossFilter{key: splitmix64(seed ^ 0x1055)}
	if rate > 0 {
		f.threshold = uint64(math.Ldexp(math.Min(rate, 1-1e-12), 64))
	}
	return f
}

func (f lossFilter) drop(src int, layer uint8, serial uint32) bool {
	if f.threshold == 0 {
		return false
	}
	return splitmix64(f.key^uint64(src)<<40^uint64(layer)<<32^uint64(serial)) < f.threshold
}

// srcLedger splits the serial-gap loss the engine counts on one (download,
// source) serial space into injected drops and kernel socket-buffer drops.
// The engine counts a gap only between two packets it processed, so an
// injected drop joins its count once a later packet of the same source
// reaches the engine; drops before the first or after the last processed
// packet never do.
type srcLedger struct {
	seen     bool  // a packet of this source reached the engine
	pending  int64 // injected drops since the last packet that reached it
	injected int64 // injected drops inside the engine's counted gaps
	filtered int64 // every injected drop, counted or not
	passed   int64 // every packet the filter let through
}

// drop records one injected drop.
func (l *srcLedger) drop() {
	l.filtered++
	if l.seen {
		l.pending++
	}
}

// pass records one packet let through and returns the injected drops the
// engine will count as the gap before it, once it processes the packet.
func (l *srcLedger) pass() int64 {
	l.passed++
	l.seen = true
	gap := l.pending
	l.pending = 0
	return gap
}

// splitmix64 is the SplitMix64 finaliser: a cheap, well-mixed 64-bit
// hash used for every seeded decision of the benchmark.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fillBytes fills dst with the seeded byte stream of one generated file.
func fillBytes(dst []byte, seed uint64) {
	s := seed
	for i := 0; i < len(dst); i += 8 {
		s = splitmix64(s)
		for j := 0; j < 8 && i+j < len(dst); j++ {
			dst[i+j] = byte(s >> (8 * j))
		}
	}
}
