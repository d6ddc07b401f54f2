package rateless_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/code"
)

// FuzzRatelessDecode streams a mixed, hostile reception into the engine's
// decoder under an LT-shaped or a pre-inverted raptor-shaped code: valid
// packets from the systematic and repair regions, out-of-range indices,
// wrong-length payloads, repeats, and Adds after completion, then a clean
// tail so the decode finishes. Under raptor the tail interleaves the
// systematic prefix, in a seeded order, with repair packets, so held
// sources, the virtual-row feed and the rebuild of missing sources meet
// out of order. Invariants after every Add:
//
//   - the decoder never panics;
//   - an Add fails exactly when code.CheckPacket rejects its arguments,
//     with that error;
//   - the returned done flag matches Done();
//   - Received() counts the distinct indices accepted before completion;
//   - Released() never decreases;
//
// and Done implies Source() is byte-identical to the encoded source.
func FuzzRatelessDecode(f *testing.F) {
	f.Add(false, int64(1), uint8(40), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(true, int64(-7), uint8(40), []byte{0x80, 0, 0, 3, 5, 6, 7, 1, 1})
	f.Add(true, int64(1998), uint8(0), []byte{4, 4, 5, 5, 6, 6})
	f.Add(false, int64(42), uint8(255), []byte{})
	f.Add(true, int64(5), uint8(63), []byte{1, 200, 0, 0, 3, 0, 0, 1, 0, 2, 9, 0})
	f.Fuzz(func(t *testing.T, raptorShaped bool, seed int64, kRaw uint8, ops []byte) {
		const pl = 8
		k := int(kRaw)%64 + 1
		name := "lt"
		if raptorShaped {
			name = "raptor"
		}
		c := newGoldenCodec(t, name, k, pl)
		rng := rand.New(rand.NewSource(seed))
		src := make([][]byte, k)
		for i := range src {
			src[i] = make([]byte, pl)
			rng.Read(src[i])
		}
		encode := func(idx int) []byte {
			pkts, err := c.EncodeRange(src, idx, idx+1)
			if err != nil {
				t.Fatalf("EncodeRange(%d): %v", idx, err)
			}
			return pkts[0]
		}

		dec := c.NewDecoder()
		accepted := make(map[int]bool)
		released := 0
		add := func(idx int, data []byte) {
			doneBefore := dec.Done()
			done, err := dec.Add(idx, data)
			want := code.CheckPacket(idx, data, code.UnboundedN, pl)
			switch {
			case (err == nil) != (want == nil):
				t.Fatalf("Add(%d, len %d): err %v, CheckPacket says %v", idx, len(data), err, want)
			case err != nil && err.Error() != want.Error():
				t.Fatalf("Add(%d): err %q, not CheckPacket's %q", idx, err, want)
			case err == nil && !doneBefore:
				accepted[idx] = true
			}
			if done != dec.Done() {
				t.Fatalf("Add(%d) returned done=%v, Done()=%v", idx, done, dec.Done())
			}
			if dec.Received() != len(accepted) {
				t.Fatalf("Received() = %d, want %d distinct accepted", dec.Received(), len(accepted))
			}
			if rc, ok := dec.(code.ReleaseCounter); ok {
				if rc.Released() < released {
					t.Fatalf("Released() fell from %d to %d", released, rc.Released())
				}
				released = rc.Released()
			}
		}

		if len(ops) > 3*64 {
			ops = ops[:3*64] // bounds the per-input and minimization cost
		}
		last := 0
		for len(ops) >= 3 {
			op, lo, hi := ops[0], int(ops[1]), int(ops[2])
			ops = ops[3:]
			idx := lo | hi<<8 // systematic prefix and low repair indices
			if op&0x80 != 0 {
				idx += 1 << 30 // deep in the repair region
			}
			switch op % 8 {
			case 4: // out of range
				if op&1 != 0 {
					add(-1-idx, make([]byte, pl))
				} else {
					add(code.UnboundedN+idx, make([]byte, pl))
				}
			case 5: // wrong length
				add(idx, make([]byte, pl+1-2*(lo&1)))
			case 6: // repeat
				add(last, encode(last))
			default:
				add(idx, encode(idx))
				last = idx
			}
		}
		var sys []int // systematic indices, seeded order (raptor only)
		if raptorShaped {
			sys = rng.Perm(k)
		}
		for i := 0; !dec.Done(); i++ {
			if i > 8*k+256 {
				t.Fatalf("%s k=%d: not done after %d clean packets (received %d)", name, k, i, dec.Received())
			}
			idx := 1<<20 + i
			if i%2 == 1 && i/2 < len(sys) {
				idx = sys[i/2]
			}
			add(idx, encode(idx))
		}
		add(last, encode(last)) // after completion
		add(-1, make([]byte, pl))
		got, err := dec.Source()
		if err != nil {
			t.Fatalf("Source after Done: %v", err)
		}
		for i := range src {
			if !bytes.Equal(got[i], src[i]) {
				t.Fatalf("%s k=%d: source packet %d differs", name, k, i)
			}
		}
	})
}
