package main

import (
	"math"
	"testing"
	"time"
)

func TestLossFilterDeterministicAndCalibrated(t *testing.T) {
	a, b := newLossFilter(42, 0.10), newLossFilter(42, 0.10)
	other := newLossFilter(43, 0.10)
	const n = 200000
	drops, differ := 0, 0
	for s := uint32(0); s < n; s++ {
		d := a.drop(1, 0, s)
		if d != b.drop(1, 0, s) {
			t.Fatalf("serial %d: one seed, two decisions", s)
		}
		if d {
			drops++
		}
		if d != other.drop(1, 0, s) {
			differ++
		}
	}
	if rate := float64(drops) / n; math.Abs(rate-0.10) > 0.005 {
		t.Errorf("drop rate %.4f, want 0.10", rate)
	}
	if differ == 0 {
		t.Error("seeds 42 and 43 drop the same serials")
	}
	if none := newLossFilter(42, 0); none.drop(0, 0, 7) {
		t.Error("zero loss rate dropped a packet")
	}
}

// The engine counts a serial gap only between two packets it processed,
// so the ledger must count exactly the drops that fall between them.
func TestLedgerCountsOnlyGapsTheEngineSees(t *testing.T) {
	var l srcLedger
	var counted int64
	l.drop() // before the first packet: no gap for the engine
	counted += l.pass()
	l.drop()
	l.drop()
	counted += l.pass() // a gap of two
	counted += l.pass()
	l.drop() // after the last packet: never counted
	if counted != 2 {
		t.Errorf("counted %d injected drops inside gaps, want 2", counted)
	}
	if l.filtered != 4 || l.passed != 3 {
		t.Errorf("filtered %d passed %d, want 4 and 3", l.filtered, l.passed)
	}
}

// Two passes with one seed hand the decoder the identical index sequence
// whenever the kernel dropped nothing: the injected loss is the only loss,
// so the reception overhead of a seed repeats exactly.
func TestRaptorLossyIndexSequenceRepeats(t *testing.T) {
	w, _ := findWorkload("raptor-lossy")
	w.minBytes, w.maxBytes, w.nominal = 1<<20, 1<<20, 2*time.Second
	clean := 0
	var digest uint64
	var handed int
	for attempt := 0; attempt < 6 && clean < 2; attempt++ {
		res, err := runPass(w, 7, 0, 4*w.nominal, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := res.downloads[0]
		if !d.ok {
			t.Fatalf("attempt %d: download not verified", attempt)
		}
		if res.kernel != 0 {
			t.Logf("attempt %d: %d kernel drops, not comparable", attempt, res.kernel)
			continue
		}
		if res.injected == 0 {
			t.Fatalf("attempt %d: no injected drop reached the engine", attempt)
		}
		if clean == 0 {
			digest, handed = d.digest, d.handed
		} else if d.digest != digest || d.handed != handed {
			t.Fatalf("one seed, two index sequences: digest %x/%x, packets %d/%d",
				digest, d.digest, handed, d.handed)
		}
		clean++
	}
	if clean < 2 {
		t.Skip("the kernel dropped packets in every attempt")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(v, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}
