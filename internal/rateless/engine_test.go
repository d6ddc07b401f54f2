package rateless

import "testing"

// The static tables New derives from the precode equations: each
// equation's unknown count is its sources plus its own check symbol, and
// the reverse adjacency lists exactly the equations covering each
// intermediate. Without equations (LT) no table is allocated.
func TestStaticTables(t *testing.T) {
	cdf := []float64{0.5, 1}
	checks := [][]int32{{0, 2}, {1}, {}, {0, 1, 3}}
	c := New(4, 4, 8, 1, cdf, checks)
	if c.l != 8 {
		t.Fatalf("L = %d, want 8", c.l)
	}
	covers := make(map[[2]int32]bool)
	for j, srcs := range checks {
		if int(c.staticDeg[j]) != len(srcs)+1 {
			t.Fatalf("check %d: staticDeg %d, want %d", j, c.staticDeg[j], len(srcs)+1)
		}
		for _, s := range srcs {
			covers[[2]int32{s, int32(j)}] = true
		}
		covers[[2]int32{int32(4 + j), int32(j)}] = true
	}
	n := 0
	for v, eqs := range c.staticOf {
		for _, j := range eqs {
			if !covers[[2]int32{int32(v), j}] {
				t.Fatalf("staticOf[%d] lists equation %d, which does not cover it", v, j)
			}
			n++
		}
	}
	if n != len(covers) {
		t.Fatalf("staticOf holds %d coverings, want %d", n, len(covers))
	}

	lt := New(4, 0, 8, 1, cdf, nil)
	if lt.l != 4 || lt.staticOf != nil || lt.staticDeg != nil {
		t.Fatalf("no-precode engine: L=%d staticOf=%v staticDeg=%v", lt.l, lt.staticOf, lt.staticDeg)
	}
	d := lt.NewDecoder().(*Decoder)
	if len(d.eqs) != 0 || len(d.parked) != 0 || d.active != 0 {
		t.Fatalf("no-precode decoder starts with %d equations, %d parking slots, %d active",
			len(d.eqs), len(d.parked), d.active)
	}
}
