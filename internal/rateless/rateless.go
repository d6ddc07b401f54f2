// Package rateless is the engine under both rateless codecs: an LT code
// over a symbol space of L intermediate symbols, optionally precoded and
// optionally systematic. The Primer on fountain codes (Qureshi et al.)
// presents a raptor code exactly this way — an LT code over a precoded
// symbol space — so one engine serves both:
//
//   - internal/lt is the engine with L = k, no static precode equations and
//     no systematic prefix: every encoding packet is a robust-soliton XOR of
//     source packets;
//   - internal/raptor is the engine with L = k+s, the s precode check
//     equations as static equations, and a pre-inverted systematic prefix
//     of k: packet i < k is source packet i, and source i is itself an LT
//     row over the intermediates (its *virtual row*), so every packet a
//     receiver catches is an equation of one well-formed code.
//
// The engine owns everything derived per encoding index — the splitmix
// stream, the degree draw, the rejection-sampled neighbor set, the encoder
// loop — the choice of virtual rows, the inactivation solver (solve.go)
// and the peeling decoder (decoder.go). Codec packages supply only data:
// the degree CDF and the static equations.
package rateless

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/code"
	"repro/internal/gf"
)

// Code is one rateless code instance. It is immutable after construction
// and safe for concurrent use; every encoder and decoder of a session
// shares it.
type Code struct {
	k         int // source symbols
	l         int // intermediate symbols: k sources, then one per check
	sys       int // systematic prefix: encoding packet i < sys is symbol i
	packetLen int
	seed      int64
	cdf       []float64 // cdf[d-1] = P(degree <= d)

	// checks[j] lists the source symbols of static equation j:
	// 0 = value(k+j) ⊕ ⊕_{i∈checks[j]} value(i).
	checks [][]int32
	// staticOf[v] lists the static equations covering intermediate v —
	// the reverse adjacency decoders walk when v resolves. For a check
	// intermediate k+j this is exactly {j} (each check owns one equation).
	// Nil without checks.
	staticOf [][]int32
	// staticDeg[j] is static equation j's initial unknown count:
	// len(checks[j]) + 1 (its sources plus its own check symbol).
	staticDeg []int32

	// vrows[i] is source i's virtual row (systematic codes only), chosen
	// on first use: sessions and receivers that never need the mapping
	// never pay for it.
	vrowOnce sync.Once
	vrows    []uint32
}

// VirtualBase is the first virtual row index. Virtual rows live in the half
// of the index space that is never valid on the wire (every wire index is
// below code.UnboundedN = 2^31-1), so they can never collide with a packet.
const VirtualBase = 1 << 31

// New builds the engine for k source packets of packetLen bytes. The
// first sys encoding indices are systematic (0 or k); cdf is the degree
// distribution over [1, len(cdf)], with len(cdf) <= k+len(checks); checks
// are the static precode equations, one check symbol each. Codec
// packages validate their parameters before calling New.
func New(k, sys, packetLen int, seed int64, cdf []float64, checks [][]int32) *Code {
	c := &Code{
		k: k, l: k + len(checks), sys: sys, packetLen: packetLen,
		seed: seed, cdf: cdf, checks: checks,
	}
	if len(checks) == 0 {
		return c
	}
	c.staticOf = make([][]int32, c.l)
	c.staticDeg = make([]int32, len(checks))
	for j, srcs := range checks {
		c.staticDeg[j] = int32(len(srcs)) + 1
		for _, s := range srcs {
			c.staticOf[s] = append(c.staticOf[s], int32(j))
		}
		c.staticOf[k+j] = []int32{int32(j)}
	}
	return c
}

// K implements code.Codec.
func (c *Code) K() int { return c.k }

// N implements code.Codec: the encoding is unbounded; every index below
// the code.UnboundedN sentinel is a valid encoding packet.
func (c *Code) N() int { return code.UnboundedN }

// PacketLen implements code.Codec.
func (c *Code) PacketLen() int { return c.packetLen }

// Seed returns the session seed the packet streams derive from.
func (c *Code) Seed() int64 { return c.seed }

// RatelessCode implements code.Rateless.
func (c *Code) RatelessCode() {}

// ErrUnbounded is returned by Encode: a rateless code has no finite "full
// encoding" to materialize.
var ErrUnbounded = errors.New("rateless: codec has no finite encoding; use EncodeRange")

// Encode implements code.Codec by failing: callers must use EncodeRange
// (core sessions detect the Rateless capability and never call Encode).
func (c *Code) Encode(src [][]byte) ([][]byte, error) { return nil, ErrUnbounded }

// prng is a splitmix64 stream. Packet index i's stream is seeded by mixing
// the session seed with i, so every encoding packet is an independent,
// reproducible draw — the property that lets unstaggered mirrors emit
// disjoint useful packets with no coordination beyond distinct indices.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 in [0, 1).
func (p *prng) uniform() float64 { return float64(p.next()>>11) / (1 << 53) }

// stream returns packet index i's PRNG, decorrelated from neighboring
// indices by one full mix round over (seed, index).
func (c *Code) stream(index uint32) prng {
	p := prng{state: uint64(c.seed) ^ (uint64(index)+1)*0xBF58476D1CE4E5B9}
	p.state = p.next()
	return p
}

// degree samples the degree distribution with the stream's next draw:
// binary search for the first CDF entry covering u.
func (c *Code) degree(p *prng) int {
	u := p.uniform()
	return sort.SearchFloat64s(c.cdf, u) + 1
}

// Degree returns encoding packet index's degree — deterministic, in
// [1, len(cdf)]; systematic indices report 1.
func (c *Code) Degree(index uint32) int {
	if int64(index) < int64(c.sys) {
		return 1
	}
	p := c.stream(index)
	return c.degree(&p)
}

// NeighborsInto writes encoding packet index's neighbor set over the
// intermediate symbols [0, L) into buf (reused if capacity allows) and
// returns it. A systematic index reports its own singleton — the packet IS
// source packet index, whose equation over the intermediates is its
// virtual row (VirtualRows). The set is deterministic in (seed, index, L),
// duplicate-free, and in range; indices at or above VirtualBase draw
// virtual rows.
func (c *Code) NeighborsInto(index uint32, buf []int) []int {
	buf = buf[:0]
	if int64(index) < int64(c.sys) {
		return append(buf, int(index))
	}
	p := c.stream(index)
	d := c.degree(&p)
	if d >= c.l {
		// Full-degree packet: enumerate rather than reject (coupon-collector
		// rejection at d = L would cost L·ln L draws).
		for i := 0; i < c.l; i++ {
			buf = append(buf, i)
		}
		return buf
	}
	// Rejection sampling keeps the draw sequence identical regardless of
	// how duplicates are detected: a linear scan for the common degrees
	// (including the soliton spike, which would otherwise allocate a map
	// on a meaningful fraction of packets), a set once quadratic scanning
	// would genuinely bite.
	var dup map[int]struct{}
	if d > 256 {
		dup = make(map[int]struct{}, d)
	}
	for len(buf) < d {
		cand := int(p.next() % uint64(c.l))
		if dup != nil {
			if _, seen := dup[cand]; seen {
				continue
			}
			dup[cand] = struct{}{}
		} else {
			seen := false
			for _, b := range buf {
				if b == cand {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
		}
		buf = append(buf, cand)
	}
	return buf
}

// VirtualRows returns, per source packet i of a systematic code, the row
// index (>= VirtualBase) whose neighbor set defines it:
//
//	source i = ⊕ intermediate v, v ∈ NeighborsInto(VirtualRows()[i]).
//
// Candidates are drawn with the ordinary sampler at VirtualBase+j for j =
// 0, 1, 2, ...; a candidate is kept only while it is linearly independent
// of the static equations and of the other kept candidates, and the choice
// stops at k rows. It is deterministic in (k, seed, degree CDF, static
// equations), so sender and receivers derive it independently. Computed
// once, on first use; nil for a code without a systematic prefix.
func (c *Code) VirtualRows() []uint32 {
	c.vrowOnce.Do(func() {
		if c.sys > 0 {
			c.vrows = c.chooseVirtualRows()
		}
	})
	return c.vrows
}

// chooseVirtualRows picks the k virtual rows greedily: draw by draw, a
// candidate is kept when it is independent of the static equations and
// the candidates kept before it. The first k draws are settled by one
// elimination of the whole system — the drops of the in-order greedy are
// the last-in-order basis of the rows' dependencies — and every later draw
// is tested against the null space of the rows kept so far, which shrinks
// by one dimension per kept draw. Structure only: no payload is touched.
func (c *Code) chooseVirtualRows() []uint32 {
	k, s := c.k, len(c.checks)
	rows := make([]uint32, k)
	for i := range rows {
		rows[i] = VirtualBase + uint32(i)
	}
	p := eliminate(c.system(rows))
	if p.full() {
		return rows
	}
	deps := p.dependencies()
	drop := make([]bool, k)
	for r := s + k - 1; r >= s && len(deps) > 0; r-- {
		h := -1
		for q, y := range deps {
			if getBit(y, r) {
				h = q
				break
			}
		}
		if h < 0 {
			continue
		}
		drop[r-s] = true
		y := deps[h]
		deps = append(deps[:h], deps[h+1:]...)
		for _, o := range deps {
			if getBit(o, r) {
				for i := range o {
					o[i] ^= y[i]
				}
			}
		}
	}
	kept := rows[:0]
	for i, idx := range rows {
		if !drop[i] {
			kept = append(kept, idx)
		}
	}
	z := p.nullSpace()
	odd := make([]bool, len(z))
	var nbuf []int
	for next := uint32(VirtualBase + k); len(z) > 0; next++ {
		nbuf = c.NeighborsInto(next, nbuf)
		h := -1
		for q, zq := range z {
			n := 0
			for _, nb := range nbuf {
				if getBit(zq, nb) {
					n++
				}
			}
			if odd[q] = n&1 == 1; odd[q] && h < 0 {
				h = q
			}
		}
		if h < 0 {
			continue // in the span of the rows kept so far
		}
		kept = append(kept, next)
		for q, zq := range z {
			if q != h && odd[q] {
				for i := range zq {
					zq[i] ^= z[h][i]
				}
			}
		}
		z = append(z[:h], z[h+1:]...)
	}
	return kept
}

// system returns the sparse system of the static equations followed by
// the neighbor sets of rows, over the L intermediates.
func (c *Code) system(rows []uint32) *system {
	sys := newSystem(c.l, len(c.checks)+len(rows), 8*c.l)
	for j, srcs := range c.checks {
		sys.cols = append(sys.cols, srcs...)
		sys.cols = append(sys.cols, int32(c.k+j))
		sys.endRow()
	}
	var nbuf []int
	for _, idx := range rows {
		nbuf = c.NeighborsInto(idx, nbuf)
		for _, nb := range nbuf {
			sys.cols = append(sys.cols, int32(nb))
		}
		sys.endRow()
	}
	return sys
}

// SolveIntermediates returns the L intermediate symbols of source block
// src for a systematic code: the unique values that satisfy every static
// equation and reproduce source i through virtual row i. One sparse solve
// with inactivation; the result is freshly allocated in one block.
func (c *Code) SolveIntermediates(src [][]byte) [][]byte {
	p := eliminate(c.system(c.VirtualRows()))
	if !p.full() {
		// VirtualRows guarantees full rank; anything else is an engine bug.
		panic(fmt.Sprintf("rateless: intermediate system has rank %d < %d", p.rank, c.l))
	}
	rhs := make([][]byte, len(c.checks), c.l) // static rows: zero payload
	rhs = append(rhs, src...)
	pl := c.packetLen
	store := make([]byte, c.l*pl)
	inter := make([][]byte, c.l)
	p.solve(rhs, inter, pl, func() []byte {
		b := store[:pl:pl]
		store = store[pl:]
		return b
	})
	return inter
}

// EncodeRange returns encoding packets [lo, hi). Systematic entries alias
// src (zero copies, zero XOR); the others are freshly allocated XORs over
// the intermediate symbols. precode expands src into those L symbols; it
// is called only when the range holds a coded packet, and may be nil when
// L = k without a systematic prefix, where the intermediates are src
// itself.
//
// Validation is proportional to the work: len(src) must be k, and each
// source or intermediate slice the range actually reads must be packetLen
// long, so one packet costs O(degree) checks, not O(k). A wrong-length
// slice the call reads is an error, never a panic; precode validates
// whatever it reads itself.
func (c *Code) EncodeRange(src [][]byte, lo, hi int, precode func([][]byte) ([][]byte, error)) ([][]byte, error) {
	if len(src) != c.k {
		return nil, fmt.Errorf("rateless: got %d source packets, want %d", len(src), c.k)
	}
	if lo < 0 || hi < lo || hi > code.UnboundedN {
		return nil, fmt.Errorf("rateless: encode range [%d,%d) out of [0,%d)", lo, hi, code.UnboundedN)
	}
	out := make([][]byte, hi-lo)
	first := max(lo, c.sys) // first coded index
	for i := lo; i < min(first, hi); i++ {
		if len(src[i]) != c.packetLen {
			return nil, c.lengthErr("source", i, src[i])
		}
		out[i-lo] = src[i]
	}
	if first >= hi {
		return out, nil
	}
	inter, what := src, "source"
	if precode != nil {
		var err error
		if inter, err = precode(src); err != nil {
			return nil, err
		}
		what = "intermediate"
	}
	store := make([]byte, (hi-first)*c.packetLen)
	var nbuf []int
	for i := first; i < hi; i++ {
		p := store[(i-first)*c.packetLen : (i-first+1)*c.packetLen]
		nbuf = c.NeighborsInto(uint32(i), nbuf)
		for _, nb := range nbuf {
			if len(inter[nb]) != c.packetLen {
				return nil, c.lengthErr(what, nb, inter[nb])
			}
			gf.XORSlice(p, inter[nb])
		}
		out[i-lo] = p
	}
	return out, nil
}

func (c *Code) lengthErr(what string, i int, p []byte) error {
	return fmt.Errorf("rateless: %s packet %d has length %d, want %d", what, i, len(p), c.packetLen)
}

var _ code.Rateless = (*Code)(nil)
