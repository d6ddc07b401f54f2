// Sparse GF(2) elimination with greedy column inactivation — the one
// solver behind the engine's three linear-algebra jobs: choosing the
// virtual rows that define the systematic mapping, the sender's solve for
// the intermediate symbols, and the decoder's endgame. It follows the
// inactivation decoding of RFC 5053 §5.4 / RFC 6330 §5.4.2, as surveyed in
// the Primer on fountain codes (Qureshi et al.) and Arslan's brief on
// incremental redundancy:
//
//  1. Peel: a row with one unknown column solves that column; every other
//     row covering it loses one unknown.
//  2. Whenever peeling stalls, take a row of minimum remaining degree and
//     inactivate all but one of its unknown columns (set them aside as
//     unknowns of a small dense system), which restarts the peeling.
//  3. Express every peeled column as its pivot row's payload plus a
//     combination of inactive columns; the rows peeling never used become
//     a dense system over the inactive columns alone, solved by Gaussian
//     elimination on bitmat words.
//  4. Back-substitute in peeling order through the original sparse rows.
//
// Elimination (eliminate) works on structure only and yields a plan: the
// peeling order, the inactive set, and the recorded dense row operations.
// Rank deficiency is known before any payload byte is touched, so a
// decoder that tries too early pays index work only. Payload work (solve)
// replays the plan: O(nonzeros) XORs for the sparse part plus
// O(inactive²) for the dense core.
package rateless

import (
	"math/bits"

	"repro/internal/bitmat"
	"repro/internal/gf"
)

// system is a sparse GF(2) linear system over columns [0, n): row r's
// columns are cols[start[r]:start[r+1]]. Columns flagged in known (nil =
// none) have given values: they move to the right-hand side instead of
// being solved for, so a caller never has to fold them into a payload
// copy first.
type system struct {
	n     int
	start []int32
	cols  []int32
	known []bool
}

func newSystem(n, rows, nnz int) *system {
	return &system{n: n, start: make([]int32, 1, rows+1), cols: make([]int32, 0, nnz)}
}

// endRow closes the row whose columns were appended to s.cols since the
// previous endRow.
func (s *system) endRow() { s.start = append(s.start, int32(len(s.cols))) }

func (s *system) rows() int { return len(s.start) - 1 }

func (s *system) row(r int32) []int32 { return s.cols[s.start[r]:s.start[r+1]] }

// Column states during elimination.
const (
	colActive uint8 = iota
	colPeeled
	colInactive
	colKnown
)

// plan is the structural outcome of eliminating a system.
type plan struct {
	sys     *system
	state   []uint8 // per column: colPeeled, colInactive or colKnown
	unknown int     // columns to solve for

	order  []int32 // pivot rows in peeling order
	pivCol []int32 // pivCol[t]: the column order[t] solves
	// mixed[t]: column pivCol[t] depends on some inactive column, so its
	// value is recomputed in back-substitution.
	mixed []bool

	inact   []int32 // inactive columns; dense column i is inact[i]
	core    []int32 // rows peeling did not use; dense row j is core[j]
	ops     []denseOp
	pivotOf []int32 // per inactive column: the dense row solving it, -1 if none
	isPivot []bool  // per dense row
	rank    int

	// Structure kept for the rank-deficient queries: vec[t*w:(t+1)*w] is
	// peeled column pivCol[t] as a combination of inactive columns, and
	// dense is the reduced dense system.
	vec   []uint64
	w     int
	dense *bitmat.Matrix
}

// denseOp records one dense row operation: row dst ^= row src.
type denseOp struct{ dst, src int32 }

// full reports whether the system determines every unknown column.
func (p *plan) full() bool { return p.rank == p.unknown }

// nullSpace (for a system without known columns) returns a basis of the
// system's null space, one vector per undetermined inactive column, each a
// bitmap over the n columns. A row is independent of the system exactly
// when it overlaps some basis vector in an odd number of columns.
func (p *plan) nullSpace() [][]uint64 {
	m := len(p.inact)
	x := make([]uint64, p.w) // an assignment of the inactive columns
	var basis [][]uint64
	for f := 0; f < m; f++ {
		if p.pivotOf[f] >= 0 {
			continue
		}
		// Free column f set, the others clear: each solved inactive column
		// follows from its reduced dense row, each peeled column from its
		// combination of inactive columns.
		clear(x)
		setBit(x, f)
		for i := 0; i < m; i++ {
			if piv := p.pivotOf[i]; piv >= 0 && p.dense.Get(int(piv), f) {
				setBit(x, i)
			}
		}
		z := make([]uint64, (p.sys.n+63)/64)
		for i, c := range p.inact {
			if getBit(x, i) {
				setBit(z, int(c))
			}
		}
		for t, c := range p.pivCol {
			if p.mixed[t] && parity(p.vec[t*p.w:(t+1)*p.w], x) {
				setBit(z, int(c))
			}
		}
		basis = append(basis, z)
	}
	return basis
}

// dependencies (for a system without known columns) returns a basis of
// the linear dependencies among the rows, one per dependent dense row,
// each a bitmap over the rows whose sum is zero.
func (p *plan) dependencies() [][]uint64 {
	s := p.sys
	nc := len(p.core)
	// The dense rows each one absorbed, by replaying the recorded ops.
	cw := (nc + 63) / 64
	comb := make([]uint64, nc*cw)
	for j := 0; j < nc; j++ {
		setBit(comb[j*cw:], j)
	}
	for _, op := range p.ops {
		dst, src := comb[int(op.dst)*cw:], comb[int(op.src)*cw:]
		for i := 0; i < cw; i++ {
			dst[i] ^= src[i]
		}
	}
	cur := make([]uint64, (s.n+63)/64) // the sum's columns
	var deps [][]uint64
	add := func(y []uint64, r int32) {
		setBit(y, int(r))
		for _, c := range s.row(r) {
			cur[c/64] ^= 1 << (uint(c) % 64)
		}
	}
	for j := 0; j < nc; j++ {
		if p.isPivot[j] {
			continue
		}
		y := make([]uint64, (s.rows()+63)/64)
		for u := 0; u < nc; u++ {
			if getBit(comb[j*cw:], u) {
				add(y, p.core[u])
			}
		}
		// The sum reduced to zero on the inactive columns; its peeled
		// columns cancel through their pivot rows, latest first (a pivot
		// row's other columns were peeled earlier or are inactive).
		for t := len(p.order) - 1; t >= 0; t-- {
			if getBit(cur, int(p.pivCol[t])) {
				add(y, p.order[t])
			}
		}
		deps = append(deps, y)
	}
	return deps
}

func setBit(v []uint64, i int)      { v[i/64] |= 1 << (uint(i) % 64) }
func getBit(v []uint64, i int) bool { return v[i/64]&(1<<(uint(i)%64)) != 0 }

// parity reports whether a and b share an odd number of set bits.
func parity(a, b []uint64) bool {
	n := 0
	for i, v := range a {
		n += bits.OnesCount64(v & b[i])
	}
	return n&1 == 1
}

// eliminate runs the structural elimination of s.
func eliminate(s *system) *plan {
	n, rows := s.n, s.rows()
	// Column -> rows adjacency in compressed form.
	cstart := make([]int32, n+1)
	for _, c := range s.cols {
		cstart[c+1]++
	}
	for c := 0; c < n; c++ {
		cstart[c+1] += cstart[c]
	}
	crows := make([]int32, len(s.cols))
	fill := append([]int32(nil), cstart[:n]...)
	for r := int32(0); r < int32(rows); r++ {
		for _, c := range s.row(r) {
			crows[fill[c]] = r
			fill[c]++
		}
	}

	p := &plan{sys: s, state: make([]uint8, n), unknown: n,
		order: make([]int32, 0, n), pivCol: make([]int32, 0, n)}
	for c, k := range s.known {
		if k {
			p.state[c] = colKnown
			p.unknown--
		}
	}
	deg := make([]int32, rows)
	used := make([]bool, rows)
	ripple := make([]int32, 0, rows) // a row enters once, when its degree reaches 1
	// Unused rows of degree >= 2 sit on doubly linked lists, one per
	// degree, so a stall finds a minimum-degree row without scanning.
	maxDeg := int32(1)
	for r := int32(0); r < int32(rows); r++ {
		for _, c := range s.row(r) {
			if p.state[c] == colActive {
				deg[r]++
			}
		}
		maxDeg = max(maxDeg, deg[r])
	}
	head := make([]int32, maxDeg+1)
	for d := range head {
		head[d] = -1
	}
	next := make([]int32, rows)
	prev := make([]int32, rows)
	lo := maxDeg + 1 // no list below lo is non-empty
	link := func(r int32) {
		switch d := deg[r]; {
		case d == 1:
			ripple = append(ripple, r)
		case d >= 2:
			next[r], prev[r] = head[d], -1
			if head[d] >= 0 {
				prev[head[d]] = r
			}
			head[d] = r
			lo = min(lo, d)
		}
	}
	for r := int32(0); r < int32(rows); r++ {
		link(r)
	}
	// drop removes column c from the active set: every unused row covering
	// it loses one unknown.
	drop := func(c int32, st uint8) {
		p.state[c] = st
		for _, r := range crows[cstart[c]:cstart[c+1]] {
			if used[r] {
				continue
			}
			if d := deg[r]; d >= 2 {
				if prev[r] >= 0 {
					next[prev[r]] = next[r]
				} else {
					head[d] = next[r]
				}
				if next[r] >= 0 {
					prev[next[r]] = prev[r]
				}
			}
			deg[r]--
			link(r)
		}
	}
	left := p.unknown
	for left > 0 {
		for len(ripple) > 0 {
			r := ripple[len(ripple)-1]
			ripple = ripple[:len(ripple)-1]
			if used[r] || deg[r] != 1 {
				continue
			}
			col := int32(-1)
			for _, c := range s.row(r) {
				if p.state[c] == colActive {
					col = c
					break
				}
			}
			used[r] = true
			p.order = append(p.order, r)
			p.pivCol = append(p.pivCol, col)
			left--
			drop(col, colPeeled)
		}
		if left == 0 {
			break
		}
		// Stalled: a row of minimum degree keeps one unknown and the rest
		// are inactivated. Keeping the column covered by the fewest rows
		// inactivates the ones whose removal frees the most rows.
		for lo <= maxDeg && head[lo] < 0 {
			lo++
		}
		if lo > maxDeg {
			// No unused row reaches an active column: those columns are
			// undetermined. Inactivate them so the plan accounts for them.
			for c := int32(0); c < int32(n); c++ {
				if p.state[c] == colActive {
					p.inact = append(p.inact, c)
					left--
					drop(c, colInactive)
				}
			}
			break
		}
		r := head[lo]
		keep := int32(-1)
		for _, c := range s.row(r) {
			if p.state[c] == colActive && (keep < 0 || cstart[c+1]-cstart[c] < cstart[keep+1]-cstart[keep]) {
				keep = c
			}
		}
		for _, c := range s.row(r) {
			if p.state[c] == colActive && c != keep {
				p.inact = append(p.inact, c)
				left--
				drop(c, colInactive)
			}
		}
	}
	for r := int32(0); r < int32(rows); r++ {
		if !used[r] {
			p.core = append(p.core, r)
		}
	}
	p.denseEliminate()
	return p
}

// denseEliminate builds the dense system over the inactive columns and
// reduces it by Gauss-Jordan elimination, recording every row operation
// for the payload replay.
func (p *plan) denseEliminate() {
	s := p.sys
	m := len(p.inact)
	p.rank = len(p.order)
	p.pivotOf = make([]int32, m)
	p.isPivot = make([]bool, len(p.core))
	p.mixed = make([]bool, len(p.order))
	if m == 0 {
		return
	}
	w := (m + 63) / 64
	dcol := make([]int32, s.n)
	for i, c := range p.inact {
		dcol[c] = int32(i)
	}
	// vec[t]: peeled column pivCol[t] as a combination of inactive
	// columns, built in peeling order (a pivot row's other columns were
	// peeled earlier or are inactive).
	vec := make([]uint64, len(p.order)*w)
	tpos := make([]int32, s.n)
	for t, c := range p.pivCol {
		tpos[c] = int32(t)
	}
	xorInto := func(dst []uint64, c int32) {
		switch p.state[c] {
		case colInactive:
			i := dcol[c]
			dst[i/64] ^= 1 << (uint(i) % 64)
		case colPeeled:
			if t := tpos[c]; p.mixed[t] {
				for i, v := range vec[int(t)*w : int(t+1)*w] {
					dst[i] ^= v
				}
			}
		}
	}
	for t, r := range p.order {
		v := vec[t*w : (t+1)*w]
		for _, c := range s.row(r) {
			if c != p.pivCol[t] {
				xorInto(v, c)
			}
		}
		for _, x := range v {
			if x != 0 {
				p.mixed[t] = true
				break
			}
		}
	}
	p.vec, p.w = vec, w
	a := bitmat.New(len(p.core), m)
	p.dense = a
	for j, r := range p.core {
		v := a.Row(j)
		for _, c := range s.row(r) {
			xorInto(v, c)
		}
	}
	for i := 0; i < m; i++ {
		piv := -1
		for j := range p.core {
			if !p.isPivot[j] && a.Get(j, i) {
				piv = j
				break
			}
		}
		p.pivotOf[i] = int32(piv)
		if piv < 0 {
			continue
		}
		p.isPivot[piv] = true
		p.rank++
		for j := range p.core {
			if j != piv && a.Get(j, i) {
				a.XorRow(j, piv)
				p.ops = append(p.ops, denseOp{int32(j), int32(piv)})
			}
		}
	}
}

// solve computes every unknown column's value into out, which holds the
// given values of the known columns, from the rows' right-hand sides
// (rhs[r] == nil is the zero payload; rhs is only read). It requires a
// full-rank plan. Column buffers come from alloc, which must return
// packetLen-byte slices; their contents are overwritten.
func (p *plan) solve(rhs, out [][]byte, packetLen int, alloc func() []byte) {
	s := p.sys
	load := func(dst, src []byte) {
		if src == nil {
			clear(dst)
		} else {
			copy(dst, src)
		}
	}
	// Forward pass with the inactive columns taken as zero: out holds each
	// peeled column's payload part.
	for t, r := range p.order {
		b := alloc()
		load(b, rhs[r])
		for _, c := range s.row(r) {
			if c != p.pivCol[t] && p.state[c] != colInactive {
				gf.XORSlice(b, out[c])
			}
		}
		out[p.pivCol[t]] = b
	}
	// Dense right-hand sides: each pivot core row with its peeled columns'
	// payload parts folded in. Dependent rows are consistent and skipped.
	y := make([][]byte, len(p.core))
	store := make([]byte, len(p.inact)*packetLen)
	for j, r := range p.core {
		if !p.isPivot[j] {
			continue
		}
		buf := store[:packetLen:packetLen]
		store = store[packetLen:]
		load(buf, rhs[r])
		for _, c := range s.row(r) {
			if p.state[c] != colInactive {
				gf.XORSlice(buf, out[c])
			}
		}
		y[j] = buf
	}
	for _, op := range p.ops {
		if p.isPivot[op.dst] {
			gf.XORSlice(y[op.dst], y[op.src])
		}
	}
	for i, c := range p.inact {
		v := alloc()
		copy(v, y[p.pivotOf[i]])
		out[c] = v
	}
	// Back-substitution in peeling order: a column that depends on the
	// inactive ones is recomputed from its sparse pivot row, whose other
	// columns are final by now.
	for t, r := range p.order {
		if !p.mixed[t] {
			continue
		}
		col := p.pivCol[t]
		b := out[col]
		load(b, rhs[r])
		for _, c := range s.row(r) {
			if c != col {
				gf.XORSlice(b, out[c])
			}
		}
	}
}
