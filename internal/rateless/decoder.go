// Decoding: joint belief-propagation peeling over the L intermediate
// symbols, where the equation set is the union of
//
//   - the *static* precode equations 0 = value(k+j) ⊕ ⊕ checks(j), known
//     to the decoder by construction and present from packet zero (their
//     "payload" is the implicit all-zero packet — never allocated, never
//     transmitted), and
//   - the received packets: a repair packet is the equation of its
//     neighbor set; a systematic packet i is source i, the equation of its
//     virtual row.
//
// An LT code has no static equations and no systematic prefix, so for it
// the decoder is plain peeling with lazy XOR release plus the endgame, and
// its intermediates are the sources. For raptor the static equations are
// free rank: a receiver needs only ≈k received symbols regardless of s,
// because the s check symbols come with their own defining equations.
//
// Deferral. Systematic payloads are held aside as source output and fed in
// as virtual-row equations only when the first non-systematic index
// arrives. A receiver that gets all k systematic packets first is done at
// exactly k packets with zero XOR work and never touches the
// intermediates; any other receiver solves for the intermediates, rebuilds
// the sources it missed from their virtual rows, and drops the
// intermediates.
//
// Parking. An equation whose single unknown is a *check* symbol that no
// other live equation wants is parked, not released: releasing it would
// spend check-degree XORs computing a value nobody reads yet. A parked
// equation is revived the moment a new packet registers as a waiter on its
// check symbol; a check still unresolved at completion is computed from
// its static equation only if a missing source's virtual row needs it.
//
// Endgame. When the live equations could cover the unknowns, the residual
// system — the unresolved intermediates among the first k plus the check
// symbols some live received equation references — goes to the
// inactivation solver (solve.go). A check symbol appearing solely in its
// own static equation is a free variable, so that row and column drop
// together. The solver settles rank on structure alone; a rank deficit
// sets a gate (needMore) that waits for that much new information before
// the next attempt.
package rateless

import (
	"fmt"

	"repro/internal/code"
	"repro/internal/gf"
)

// eq is one decoding equation. Ids [0, s) are the static precode
// equations (data == nil: the implicit zero payload); received packets
// append after. index is the row the equation's neighbors derive from:
// the wire index of a repair packet, the virtual row of a systematic one.
// data holds the payload as received — for a virtual row it is the held
// source buffer, which is never written — and resolved neighbors are XORed
// out lazily at release time.
type eq struct {
	index     uint32
	data      []byte
	remaining int32 // unresolved neighbors; 0 = retired
	nb0, nb1  int32 // a received equation's neighbors: Decoder.nbs[nb0:nb1]
}

// virtual reports whether the equation is a systematic packet's virtual
// row, whose payload is shared with the source output.
func (e *eq) virtual() bool { return e.index >= VirtualBase }

// Decoder is the engine's code.Decoder; NewDecoder returns one per
// receiver.
type Decoder struct {
	c *Code

	values   [][]byte // per intermediate symbol; nil while unresolved
	left     int      // unresolved intermediates among the first k
	resolved int      // resolved intermediates (first k and checks)
	eqs      []eq     // [0,s) static, then received
	// Waiter lists (intermediate -> ids of buffered equations covering
	// it) as linked nodes in one growable arena — registration never
	// allocates per symbol.
	whead    []int32 // per intermediate: index into wnodes, -1 = empty
	wnodes   []wnode
	relq     []int32
	active   int                 // equations with remaining > 0
	parked   []int32             // per check j: 1+id of an equation parked on k+j, 0 if none
	seen     map[uint32]struct{} // distinct accepted wire indices
	needMore int                 // rank-deficit gate for the endgame

	// Source output: nil for a code without a systematic prefix, whose
	// sources are its first k intermediates. Otherwise the held systematic
	// payloads, completed from the virtual rows at the end; held counts
	// them, and fed records that the first non-systematic index arrived.
	src  [][]byte
	held int
	fed  bool

	released int // coded-equation releases: the deferred-XOR events
	xors     int // payload XORSlice calls on the peeling path

	nbuf []int
	nbs  []int32 // neighbor lists of the buffered received equations
	done bool

	// Slab arenas + free list for payload buffers: the steady-state intake
	// path allocates O(1) slabs per 16 packets instead of one buffer per
	// packet. Source output has its own arena so that dropping the
	// intermediates at completion frees theirs.
	slab    []byte
	free    [][]byte
	srcSlab []byte
}

// wnode is one waiter registration: equation id, plus the next node on
// the same intermediate's list.
type wnode struct {
	id   int32
	next int32
}

// NewDecoder implements code.Codec. The static equations are live
// immediately; a zero-source check (possible on tiny precodes) starts
// releasable and is parked on first drain.
func (c *Code) NewDecoder() code.Decoder {
	s := len(c.checks)
	d := &Decoder{
		c:      c,
		values: make([][]byte, c.l),
		whead:  make([]int32, c.l),
		wnodes: make([]wnode, 0, 2*c.k),
		eqs:    make([]eq, s, s+c.k/2+16),
		parked: make([]int32, s),
		seen:   make(map[uint32]struct{}, c.k+c.k/8),
	}
	for v := range d.whead {
		d.whead[v] = -1
	}
	for j := 0; j < s; j++ {
		d.eqs[j].remaining = c.staticDeg[j]
		if d.eqs[j].remaining == 1 {
			d.relq = append(d.relq, int32(j))
		}
	}
	d.active = s
	d.left = c.k
	if c.sys > 0 {
		d.src = make([][]byte, c.k)
	}
	return d
}

// Add implements code.Decoder.
func (d *Decoder) Add(i int, data []byte) (bool, error) {
	if err := code.CheckPacket(i, data, code.UnboundedN, d.c.packetLen); err != nil {
		return d.done, err
	}
	if d.done {
		return true, nil
	}
	index := uint32(i)
	if _, dup := d.seen[index]; dup {
		return false, nil
	}
	d.seen[index] = struct{}{}
	resBefore := d.resolved
	contributed := false
	if i < d.c.sys {
		// Systematic packet: the payload IS source i. Held as output; an
		// equation only once repair packets are in play.
		buf := d.srcAlloc()
		copy(buf, data)
		d.src[i] = buf
		if d.held++; d.held == d.c.k {
			d.complete()
			return true, nil
		}
		if d.fed {
			contributed = d.addEquation(d.c.VirtualRows()[i], buf)
		}
	} else {
		if d.src != nil && !d.fed {
			d.feed()
		}
		contributed = d.addEquation(index, data)
	}
	// Pay down the endgame's rank-deficit gate by actual progress: a
	// contributing equation adds prospective rank, and every symbol
	// resolved since the packet arrived removes a column from the residual
	// system.
	if d.needMore > 0 {
		progress := d.resolved - resBefore
		if contributed {
			progress++
		}
		if d.needMore -= progress; d.needMore < 0 {
			d.needMore = 0
		}
	}
	if !d.done {
		d.tryEliminate()
	}
	return d.done, nil
}

// feed turns the held systematic payloads into virtual-row equations: the
// first non-systematic index has arrived, so the receiver is decoding the
// intermediates rather than collecting sources. Fewer than k held rows
// plus the s static ones cannot determine the L intermediates, so feeding
// never completes the decode by itself.
func (d *Decoder) feed() {
	d.fed = true
	vr := d.c.VirtualRows()
	for i, s := range d.src {
		if s != nil {
			d.addEquation(vr[i], s)
		}
	}
}

// addEquation admits the equation of row index with payload data and
// reports whether it contributed (was not redundant on arrival). A
// virtual row's payload is the held source buffer and is never written;
// any other payload is copied into the arena.
func (d *Decoder) addEquation(index uint32, data []byte) bool {
	d.nbuf = d.c.NeighborsInto(index, d.nbuf)
	unresolved := 0
	last := -1
	for _, nb := range d.nbuf {
		if d.values[nb] == nil {
			unresolved++
			last = nb
		}
	}
	switch unresolved {
	case 0:
		// Redundant at arrival: adds no equation, must not pay down a
		// pending endgame deficit.
		return false
	case 1:
		// Immediately releasable.
		buf := d.alloc()
		copy(buf, data)
		for _, nb := range d.nbuf {
			if v := d.values[nb]; v != nil {
				gf.XORSlice(buf, v)
				d.xors++
			}
		}
		d.released++
		d.resolve(last, buf)
		d.drainRipple()
		return true
	}
	id := int32(len(d.eqs))
	e := eq{index: index, data: data, remaining: int32(unresolved), nb0: int32(len(d.nbs))}
	if !e.virtual() {
		e.data = d.alloc()
		copy(e.data, data)
	}
	for _, nb := range d.nbuf {
		d.nbs = append(d.nbs, int32(nb))
	}
	e.nb1 = int32(len(d.nbs))
	d.eqs = append(d.eqs, e)
	d.active++
	for _, nb := range d.nbuf {
		if d.values[nb] != nil {
			continue
		}
		d.addWaiter(nb, id)
		if nb >= d.c.k {
			// A new customer for this check symbol: revive any
			// equation parked on it.
			if p := d.parked[nb-d.c.k]; p != 0 {
				d.parked[nb-d.c.k] = 0
				d.relq = append(d.relq, p-1)
			}
		}
	}
	d.drainRipple()
	return true
}

// resolve records intermediate s's value and decrements every live
// equation covering it: the static equations via the codec's reverse
// adjacency, the buffered received equations via the waiter lists.
func (d *Decoder) resolve(s int, val []byte) {
	d.values[s] = val
	d.resolved++
	if s < d.c.k {
		if d.left--; d.left == 0 {
			d.complete()
			return
		}
	} else if p := d.parked[s-d.c.k]; p != 0 {
		// Anything parked on this check symbol is now redundant; its
		// remaining hits 0 in the decrement loops below.
		d.parked[s-d.c.k] = 0
	}
	if d.c.staticOf != nil {
		for _, j := range d.c.staticOf[s] {
			e := &d.eqs[j]
			if e.remaining > 0 {
				e.remaining--
				switch e.remaining {
				case 1:
					d.relq = append(d.relq, j)
				case 0:
					d.active--
				}
			}
		}
	}
	for nid := d.whead[s]; nid >= 0; nid = d.wnodes[nid].next {
		id := d.wnodes[nid].id
		e := &d.eqs[id]
		if e.remaining > 0 {
			e.remaining--
			switch e.remaining {
			case 1:
				d.relq = append(d.relq, id)
			case 0:
				// Queued for release with s as its last unknown; now
				// fully covered, hence redundant.
				d.dropData(e)
				d.active--
			}
		}
	}
	d.whead[s] = -1 // nodes stay in the arena; freed wholesale at completion
}

// dropData returns a retired equation's payload buffer to the arena (a
// virtual row's shared source buffer stays with the output).
func (d *Decoder) dropData(e *eq) {
	if e.data != nil && !e.virtual() {
		d.freeBuf(e.data)
	}
	e.data = nil
}

// needed reports whether releasing equation id's check-symbol target
// would feed any *other* live equation. A static equation wants its own
// check only while it still has another unknown to peel (remaining > 1);
// a waiter likewise contributes nothing if the check is its sole unknown
// too (releasing either one retires both with no symbol gained).
func (d *Decoder) needed(id int32, target int) bool {
	j := int32(target - d.c.k)
	if j != id && d.eqs[j].remaining > 1 {
		return true
	}
	for nid := d.whead[target]; nid >= 0; nid = d.wnodes[nid].next {
		if wid := d.wnodes[nid].id; wid != id && d.eqs[wid].remaining > 1 {
			return true
		}
	}
	return false
}

// drainRipple releases queued equations until the ripple is empty or the
// decode completes. Releasing performs the whole deferred XOR at once;
// equations whose last unknown is an unwanted check symbol are parked
// instead (see the package comment).
func (d *Decoder) drainRipple() {
	for len(d.relq) > 0 && !d.done {
		id := d.relq[len(d.relq)-1]
		d.relq = d.relq[:len(d.relq)-1]
		e := &d.eqs[id]
		if e.remaining != 1 {
			continue // raced to 0: became redundant while queued
		}
		static := id < int32(len(d.c.checks))
		target := -1
		if static {
			j := int(id)
			if d.values[d.c.k+j] == nil {
				target = d.c.k + j
			} else {
				for _, nb := range d.c.checks[j] {
					if d.values[nb] == nil {
						target = int(nb)
						break
					}
				}
			}
		} else {
			for _, nb := range d.nbs[e.nb0:e.nb1] {
				if d.values[nb] == nil {
					target = int(nb)
					break
				}
			}
		}
		if target < 0 {
			// Bookkeeping says one unknown but none found — defensive:
			// retire rather than corrupt.
			e.remaining = 0
			d.dropData(e)
			d.active--
			continue
		}
		if target >= d.c.k && !d.needed(id, target) {
			d.parked[target-d.c.k] = id + 1
			continue
		}
		var val []byte
		switch {
		case e.data == nil:
			val = d.alloc()
			clear(val)
		case e.virtual():
			val = d.alloc()
			copy(val, e.data)
		default:
			val = e.data
		}
		e.data = nil
		if static {
			j := int(id)
			for _, nb := range d.c.checks[j] {
				if v := d.values[nb]; v != nil {
					gf.XORSlice(val, v)
					d.xors++
				}
			}
			if v := d.values[d.c.k+j]; v != nil {
				gf.XORSlice(val, v)
				d.xors++
			}
		} else {
			for _, nb := range d.nbs[e.nb0:e.nb1] {
				if v := d.values[nb]; v != nil {
					gf.XORSlice(val, v)
					d.xors++
				}
			}
		}
		e.remaining = 0
		d.active--
		d.released++
		d.resolve(target, val)
	}
}

// tryEliminate hands the residual system to the inactivation solver once
// the live equations could cover its unknowns: the unresolved
// intermediates among the first k plus the check symbols some live
// received equation references, over the live received equations plus the
// static equations whose own check is either resolved or referenced. A
// check symbol appearing only in its own static equation is a free
// variable — that row and column leave the system together, which keeps
// the system near the true information deficit instead of O(s) wider.
func (d *Decoder) tryEliminate() {
	if d.done || d.needMore > 0 || d.left == 0 || d.active < d.left {
		// Fewer live equations than unknowns is an O(1) check recomputed on
		// every Add, so it must NOT set needMore: while peeling resolves
		// symbols the deficit shrinks faster than one per packet, and a
		// counted-down gate would overshoot.
		return
	}
	k, s := d.c.k, len(d.c.checks)
	colOf := make([]int32, d.c.l) // 1 + column id; 0 = not a column
	syms := make([]int, 0, 2*d.left)
	col := func(v int) int32 {
		if colOf[v] == 0 {
			syms = append(syms, v)
			colOf[v] = int32(len(syms))
		}
		return colOf[v] - 1
	}
	// First the unknowns and the rows, so that a short system is turned
	// away before anything is built.
	for v := 0; v < k; v++ {
		if d.values[v] == nil {
			col(v)
		}
	}
	var rows []int32 // equation id per system row
	nnz := 0
	for id := int32(s); id < int32(len(d.eqs)); id++ {
		e := &d.eqs[id]
		if e.remaining <= 0 {
			continue
		}
		for _, nb := range d.nbs[e.nb0:e.nb1] {
			if d.values[nb] == nil {
				col(int(nb))
			}
		}
		rows = append(rows, id)
		nnz += int(e.nb1 - e.nb0)
	}
	for j := 0; j < s; j++ {
		own := k + j
		if d.eqs[j].remaining > 0 && (d.values[own] != nil || colOf[own] != 0) {
			rows = append(rows, int32(j))
			nnz += len(d.c.checks[j]) + 1
		}
	}
	unknown := len(syms)
	if len(rows) < unknown {
		d.needMore = deficitWait(unknown - len(rows))
		return
	}
	// Resolved neighbors of a received repair equation are folded into its
	// own payload once the solve is certain (the equation dies with it).
	// Those of a virtual row or a static equation, whose payloads are
	// shared or implicit, become known columns instead, so nothing is
	// copied.
	sys := newSystem(0, len(rows), nnz)
	for _, id := range rows {
		if id < int32(s) {
			for _, nb := range d.c.checks[id] {
				sys.cols = append(sys.cols, col(int(nb)))
			}
			sys.cols = append(sys.cols, col(k+int(id)))
		} else {
			e := &d.eqs[id]
			for _, nb := range d.nbs[e.nb0:e.nb1] {
				if e.virtual() || d.values[nb] == nil {
					sys.cols = append(sys.cols, col(int(nb)))
				}
			}
		}
		sys.endRow()
	}
	sys.n = len(syms)
	sys.known = make([]bool, sys.n)
	vals := make([][]byte, sys.n)
	for ci, v := range syms {
		vals[ci] = d.values[v]
		sys.known[ci] = vals[ci] != nil
	}
	p := eliminate(sys)
	if !p.full() {
		d.needMore = deficitWait(unknown - p.rank)
		return
	}
	rhs := make([][]byte, len(rows))
	for r, id := range rows {
		e := &d.eqs[id]
		if id >= int32(s) && !e.virtual() {
			for _, nb := range d.nbs[e.nb0:e.nb1] {
				if v := d.values[nb]; v != nil {
					gf.XORSlice(e.data, v)
				}
			}
		}
		rhs[r] = e.data // nil for a static equation
	}
	p.solve(rhs, vals, d.c.packetLen, d.alloc)
	for ci, v := range syms {
		d.values[v] = vals[ci]
	}
	d.left = 0
	d.complete()
}

// deficitWait converts a rank deficit into the progress units to wait
// before the next endgame attempt. The floor adds hysteresis: a deficit of
// 1-2 would otherwise trigger a full (and likely still deficient) rebuild
// on nearly every subsequent packet.
func deficitWait(deficit int) int {
	if deficit < 8 {
		return 8
	}
	return deficit
}

// complete finishes the decode: for a systematic code, every source that
// was not received is rebuilt from its virtual row over the solved
// intermediates. Then the intermediates and the equation state are
// dropped; only the source output survives for Source.
func (d *Decoder) complete() {
	d.done = true
	k := d.c.k
	if d.src == nil {
		d.src = d.values[:k]
	} else if d.held < k {
		vr := d.c.VirtualRows()
		for i, s := range d.src {
			if s != nil {
				continue
			}
			buf := d.srcAlloc()
			d.nbuf = d.c.NeighborsInto(vr[i], d.nbuf)
			for n, v := range d.nbuf {
				if n == 0 {
					copy(buf, d.intermediate(v))
				} else {
					gf.XORSlice(buf, d.intermediate(v))
				}
			}
			d.src[i] = buf
		}
	}
	d.left = 0
	d.values = nil
	d.eqs = nil
	d.relq = nil
	d.whead = nil
	d.wnodes = nil
	d.nbs = nil
	d.parked = nil
	d.slab = nil
	d.free = nil
	d.srcSlab = nil
}

// intermediate returns intermediate v once the first k are resolved,
// computing a still-unresolved check symbol from its static equation.
func (d *Decoder) intermediate(v int) []byte {
	if val := d.values[v]; val != nil {
		return val
	}
	val := d.alloc()
	clear(val)
	for _, s := range d.c.checks[v-d.c.k] {
		gf.XORSlice(val, d.values[s])
	}
	d.values[v] = val
	return val
}

// alloc hands out one packet buffer from the intermediate arena (contents
// arbitrary — callers copy or clear).
func (d *Decoder) alloc() []byte {
	if n := len(d.free); n > 0 {
		b := d.free[n-1]
		d.free = d.free[:n-1]
		return b
	}
	return carve(&d.slab, d.c.packetLen)
}

// srcAlloc hands out one packet buffer from the source-output arena.
func (d *Decoder) srcAlloc() []byte { return carve(&d.srcSlab, d.c.packetLen) }

// carve cuts one pl-byte buffer off *slab, refilling it with a fresh slab
// of at least 16 packets when it runs short.
func carve(slab *[]byte, pl int) []byte {
	if len(*slab) < pl {
		*slab = make([]byte, max(16*pl, 16384))
	}
	b := (*slab)[:pl:pl]
	*slab = (*slab)[pl:]
	return b
}

func (d *Decoder) freeBuf(b []byte) {
	if b != nil {
		d.free = append(d.free, b)
	}
}

// addWaiter registers equation id on intermediate v: one arena append,
// one head swap.
func (d *Decoder) addWaiter(v int, id int32) {
	d.wnodes = append(d.wnodes, wnode{id: id, next: d.whead[v]})
	d.whead[v] = int32(len(d.wnodes) - 1)
}

// Done implements code.Decoder.
func (d *Decoder) Done() bool { return d.done }

// Received implements code.Decoder: distinct accepted packets.
func (d *Decoder) Received() int { return len(d.seen) }

// Released implements code.ReleaseCounter: the number of coded-equation
// releases on the peeling path — each one a deferred-XOR event exposing a
// symbol. Columns the endgame solves are not counted. A receiver of the k
// systematic packets reports exactly 0.
func (d *Decoder) Released() int { return d.released }

// XORs returns the payload XORSlice count on the peeling path (the
// endgame's solve and the rebuild of missing sources are not included).
// Zero loss ⇒ zero.
func (d *Decoder) XORs() int { return d.xors }

// Source implements code.Decoder.
func (d *Decoder) Source() ([][]byte, error) {
	if !d.done {
		return nil, code.ErrNotReady
	}
	for i, s := range d.src {
		if s == nil {
			return nil, fmt.Errorf("rateless: source %d unresolved after completion", i)
		}
	}
	return d.src, nil
}
