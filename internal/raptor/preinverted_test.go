package raptor

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gf"
	"repro/internal/rateless"
)

// TestPreInvertedMapping checks the systematic mapping over every k up to
// 64 and a few larger blocks:
//
//   - two codec instances derive the same virtual rows, all in the half of
//     the index space that is never valid on the wire, and they are
//     exactly the in-order greedy choice (each draw kept iff independent
//     of the check equations and the draws kept before it), recomputed
//     here by dense elimination;
//   - the solved intermediates satisfy every precode check equation and
//     reproduce source i through virtual row i;
//   - streams joined at index 0 with 10% seeded loss decode, on a codec
//     instance of their own, to the identical source.
func TestPreInvertedMapping(t *testing.T) {
	ks := []int{100, 257, 1000}
	for k := 1; k <= 64; k++ {
		ks = append(ks, k)
	}
	const pl = 16
	for _, k := range ks {
		seed := int64(k)*7919 + 3
		enc, twin := mustNew(t, k, pl, seed), mustNew(t, k, pl, seed)
		rows := enc.VirtualRows()
		if fmt.Sprint(rows) != fmt.Sprint(twin.VirtualRows()) {
			t.Fatalf("k=%d: two instances chose different virtual rows", k)
		}
		if len(rows) != k {
			t.Fatalf("k=%d: %d virtual rows", k, len(rows))
		}
		seen := make(map[uint32]bool, k)
		for _, r := range rows {
			if r < rateless.VirtualBase || seen[r] {
				t.Fatalf("k=%d: virtual row %d repeated or below %d", k, r, uint32(rateless.VirtualBase))
			}
			seen[r] = true
		}
		if greedy := greedyVirtualRows(enc); fmt.Sprint(greedy) != fmt.Sprint(rows) {
			t.Fatalf("k=%d: virtual rows %v, the in-order greedy keeps %v", k, rows, greedy)
		}

		src := testSrc(t, k, pl, seed)
		inter := enc.SolveIntermediates(src)
		if len(inter) != enc.Intermediates() {
			t.Fatalf("k=%d: %d intermediates, want %d", k, len(inter), enc.Intermediates())
		}
		sum := make([]byte, pl)
		for j, srcs := range enc.checkSrc {
			copy(sum, inter[k+j])
			for _, s := range srcs {
				gf.XORSlice(sum, inter[s])
			}
			if !bytes.Equal(sum, make([]byte, pl)) {
				t.Fatalf("k=%d: check equation %d violated", k, j)
			}
		}
		var nbuf []int
		for i, r := range rows {
			clear(sum)
			for _, nb := range enc.NeighborsInto(r, nbuf) {
				gf.XORSlice(sum, inter[nb])
			}
			if !bytes.Equal(sum, src[i]) {
				t.Fatalf("k=%d: virtual row %d does not reproduce its source", k, i)
			}
		}

		for trial := int64(0); trial < 3; trial++ {
			rcv := mustNew(t, k, pl, seed)
			dec := rcv.NewDecoder()
			loss := rand.New(rand.NewSource(seed + trial))
			for i := 0; !dec.Done(); i++ {
				if i > 4*k+64 {
					t.Fatalf("k=%d trial %d: no decode after %d indices", k, trial, i)
				}
				if loss.Float64() < 0.1 {
					continue
				}
				pkts, err := enc.EncodeRange(src, i, i+1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := dec.Add(i, pkts[0]); err != nil {
					t.Fatal(err)
				}
			}
			checkSource(t, dec, src)
		}
	}
}

// ReleaseEncoder drops the cached intermediates, and the packets encoded
// after it are the packets encoded before it.
func TestReleaseEncoder(t *testing.T) {
	const k, pl = 200, 32
	c := mustNew(t, k, pl, 9)
	src := testSrc(t, k, pl, 9)
	before, err := c.EncodeRange(src, k-3, k+40)
	if err != nil {
		t.Fatal(err)
	}
	if c.inter == nil {
		t.Fatal("repair encoding left no cached intermediates")
	}
	c.ReleaseEncoder()
	if c.inter != nil || c.encKey != nil {
		t.Fatal("ReleaseEncoder kept the cached intermediates")
	}
	after, err := c.EncodeRange(src, k-3, k+40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if !bytes.Equal(before[i], after[i]) {
			t.Fatalf("packet %d differs after ReleaseEncoder", k-3+i)
		}
	}
}

// greedyVirtualRows is the reference for the virtual-row choice: dense
// incremental elimination over the intermediates, the check equations
// first, then the draws at VirtualBase+j in order, each kept iff it is
// independent of everything kept before it.
func greedyVirtualRows(c *Codec) []uint32 {
	l, k := c.Intermediates(), c.K()
	words := (l + 63) / 64
	var basis [][]uint64 // reduced rows, each with a distinct leading bit
	var lead []int
	independent := func(v []uint64) bool {
		for i, b := range basis {
			if v[lead[i]/64]&(1<<(uint(lead[i])%64)) != 0 {
				for w := range v {
					v[w] ^= b[w]
				}
			}
		}
		for w, x := range v {
			if x != 0 {
				basis = append(basis, v)
				lead = append(lead, w*64+bits.TrailingZeros64(x))
				// Keep every earlier row free of the new leading bit, so a
				// single pass in basis order reduces a vector fully.
				for i := range basis[:len(basis)-1] {
					if b := basis[i]; b[lead[len(lead)-1]/64]&(1<<(uint(lead[len(lead)-1])%64)) != 0 {
						for w := range b {
							b[w] ^= v[w]
						}
					}
				}
				return true
			}
		}
		return false
	}
	row := func(cols []int) []uint64 {
		v := make([]uint64, words)
		for _, c := range cols {
			v[c/64] ^= 1 << (uint(c) % 64)
		}
		return v
	}
	for j, srcs := range c.checkSrc {
		cols := []int{k + j}
		for _, s := range srcs {
			cols = append(cols, int(s))
		}
		independent(row(cols))
	}
	var kept []uint32
	for idx := uint32(rateless.VirtualBase); len(kept) < k; idx++ {
		if independent(row(c.NeighborsInto(idx, nil))) {
			kept = append(kept, idx)
		}
	}
	return kept
}

// One codec shared by concurrent encoders, decoders and releases — the
// lazily chosen virtual rows and the cached intermediates are reached from
// every side at once. Run under -race.
func TestConcurrentEncodeDecodeRelease(t *testing.T) {
	const k, pl = 300, 16
	c := mustNew(t, k, pl, 21)
	src := testSrc(t, k, pl, 21)
	want, err := c.EncodeRange(src, k, k+50)
	if err != nil {
		t.Fatal(err)
	}
	c.ReleaseEncoder()
	fresh := mustNew(t, k, pl, 21) // its virtual rows are chosen under contention
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				got, err := c.EncodeRange(src, k, k+50)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						errs <- fmt.Errorf("goroutine %d: repair packet %d differs", g, k+i)
						return
					}
				}
			case 1:
				c.ReleaseEncoder()
			default:
				dec := fresh.NewDecoder()
				for i := g; !dec.Done(); i += 2 {
					pkts, err := c.EncodeRange(src, i, i+1)
					if err != nil {
						errs <- err
						return
					}
					if _, err := dec.Add(i, pkts[0]); err != nil {
						errs <- err
						return
					}
				}
				got, err := dec.Source()
				if err != nil {
					errs <- err
					return
				}
				for i := range src {
					if !bytes.Equal(got[i], src[i]) {
						errs <- fmt.Errorf("goroutine %d: source %d differs", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
