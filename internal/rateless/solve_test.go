package rateless

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/gf"
)

// randomSystem draws rows sparse rows over n columns — mostly low degree,
// some dense — and their dense form.
func randomSystem(rng *rand.Rand, n, rows int) (*system, *bitmat.Matrix) {
	sys := newSystem(n, rows, 8*rows)
	dense := bitmat.New(rows, n)
	for r := 0; r < rows; r++ {
		deg := min(1+rng.Intn(4), n)
		if rng.Intn(8) == 0 {
			deg = 1 + rng.Intn(n)
		}
		for _, c := range rng.Perm(n)[:deg] {
			sys.cols = append(sys.cols, int32(c))
			dense.Set(r, c, true)
		}
		sys.endRow()
	}
	return sys, dense
}

// The solver against dense elimination on random systems, a third of them
// with some columns given as known: the rank over the unknown columns
// agrees, a full-rank plan solves for planted values exactly, and in a
// rank-deficient plan without known columns every null-space vector is
// orthogonal to every row and every dependency sums its rows to zero.
func TestEliminateRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const pl = 8
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(60)
		rows := n - 3 + rng.Intn(10)
		if rows < 1 {
			rows = 1
		}
		sys, dense := randomSystem(rng, n, rows)
		withKnown := trial%3 == 0
		if withKnown {
			sys.known = make([]bool, n)
			for c := range sys.known {
				if sys.known[c] = rng.Intn(3) == 0; sys.known[c] {
					for r := 0; r < rows; r++ {
						dense.Set(r, c, false)
					}
				}
			}
		}
		p := eliminate(sys)
		if want := dense.Rank(); p.rank != want {
			t.Fatalf("trial %d: rank %d, dense elimination says %d", trial, p.rank, want)
		}
		if p.full() {
			x := make([][]byte, n)
			for c := range x {
				x[c] = make([]byte, pl)
				rng.Read(x[c])
			}
			rhs := make([][]byte, rows)
			for r := range rhs {
				rhs[r] = make([]byte, pl)
				for _, c := range sys.row(int32(r)) {
					gf.XORSlice(rhs[r], x[c])
				}
			}
			got := make([][]byte, n)
			for c, k := range sys.known {
				if k {
					got[c] = x[c]
				}
			}
			p.solve(rhs, got, pl, func() []byte { return make([]byte, pl) })
			for c := range x {
				if !bytes.Equal(got[c], x[c]) {
					t.Fatalf("trial %d: column %d solved wrong", trial, c)
				}
			}
			continue
		}
		if withKnown {
			continue
		}
		z := p.nullSpace()
		if len(z) != n-p.rank {
			t.Fatalf("trial %d: %d null vectors, want %d", trial, len(z), n-p.rank)
		}
		for _, v := range z {
			for r := int32(0); r < int32(rows); r++ {
				odd := false
				for _, c := range sys.row(r) {
					odd = odd != getBit(v, int(c))
				}
				if odd {
					t.Fatalf("trial %d: null vector not orthogonal to row %d", trial, r)
				}
			}
		}
		deps := p.dependencies()
		if len(deps) != rows-p.rank {
			t.Fatalf("trial %d: %d dependencies, want %d", trial, len(deps), rows-p.rank)
		}
		for _, y := range deps {
			sum := make([]bool, n)
			for r := int32(0); r < int32(rows); r++ {
				if getBit(y, int(r)) {
					for _, c := range sys.row(r) {
						sum[c] = !sum[c]
					}
				}
			}
			for c, odd := range sum {
				if odd {
					t.Fatalf("trial %d: dependency leaves column %d", trial, c)
				}
			}
		}
	}
}
