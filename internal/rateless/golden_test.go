package rateless_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/code"
	"repro/internal/lt"
	"repro/internal/raptor"
)

// The golden rows below pin wire identity (neighbor sets and encoded
// bytes) for both codecs and the decode results. LT's rows and every
// neighbor and systematic-prefix hash date from the separate decoders that
// preceded the shared engine. Raptor's repair bytes and decode rows were
// re-recorded when the systematic mapping became pre-inverted: repair
// packet i is the same neighbor set over different intermediate values,
// and a lossy receiver now needs ≈k packets wherever its losses fall. LT
// decode results may move with the endgame's retry hysteresis only.

const goldenSeed = 1998

// ratelessCodec is the surface the golden tests drive on both codecs.
type ratelessCodec interface {
	code.Codec
	code.RangeEncoder
	NeighborsInto(index uint32, buf []int) []int
}

func newGoldenCodec(t testing.TB, name string, k, pl int) ratelessCodec {
	t.Helper()
	var (
		c   ratelessCodec
		err error
	)
	switch name {
	case "lt":
		c, err = lt.New(k, pl, goldenSeed, 0, 0)
	case "raptor":
		c, err = raptor.New(k, pl, goldenSeed, 0, 0, 0, 0)
	default:
		t.Fatalf("unknown codec %q", name)
	}
	if err != nil {
		t.Fatalf("%s.New(k=%d): %v", name, k, err)
	}
	return c
}

func goldenSrc(k, pl int) [][]byte {
	rng := rand.New(rand.NewSource(int64(k)))
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, pl)
		rng.Read(src[i])
	}
	return src
}

func hashPackets(pkts [][]byte) string {
	h := sha256.New()
	for _, p := range pkts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// receptionOrder yields the n-th arrival's encoding index, or ok=false
// when the arrival is lost.
type receptionOrder func(n int, rng *rand.Rand) (index int, ok bool)

var receptionOrders = []struct {
	name  string
	order receptionOrder
}{
	// A late joiner on a long-running mirror: repair packets only.
	{"repair-only", func(n int, _ *rand.Rand) (int, bool) { return 3<<28 + n, true }},
	// Joined at stream start, 10% seeded loss.
	{"start-loss10", func(n int, rng *rand.Rand) (int, bool) { return n, rng.Float64() >= 0.10 }},
	// Two uncoordinated mirrors interleaved, 5% loss each.
	{"two-mirrors-loss5", func(n int, rng *rand.Rand) (int, bool) {
		base := 0
		if n%2 == 1 {
			base = 1<<29 + 12345
		}
		return base + n/2, rng.Float64() >= 0.05
	}},
}

type goldenRow struct {
	received, released, xors int
	source                   string
}

// goldenDecode is the recorded result per "codec/k/order".
var goldenDecode = map[string]goldenRow{
	"lt/1000/repair-only":            {1052, 1000, 0, "934885c045c43f83"},
	"lt/1000/start-loss10":           {1167, 1000, 0, "934885c045c43f83"},
	"lt/1000/two-mirrors-loss5":      {1072, 1000, 0, "934885c045c43f83"},
	"lt/10000/repair-only":           {10522, 10000, 0, "43b1a3948ad8908a"},
	"lt/10000/start-loss10":          {10525, 10000, 0, "43b1a3948ad8908a"},
	"lt/10000/two-mirrors-loss5":     {10658, 10000, 0, "43b1a3948ad8908a"},
	"raptor/1000/repair-only":        {1008, 481, 605, "934885c045c43f83"},
	"raptor/1000/start-loss10":       {1010, 346, 375, "934885c045c43f83"},
	"raptor/1000/two-mirrors-loss5":  {1018, 441, 574, "934885c045c43f83"},
	"raptor/10000/repair-only":       {10033, 3038, 3447, "43b1a3948ad8908a"},
	"raptor/10000/start-loss10":      {10032, 3825, 4690, "43b1a3948ad8908a"},
	"raptor/10000/two-mirrors-loss5": {10010, 1759, 1817, "43b1a3948ad8908a"},
}

// lossyBound is the reception bound for a raptor receiver that catches
// the systematic prefix with losses: the pre-inverted mapping makes its
// packets as useful as repair packets.
const lossyBound = 1.05

func TestGoldenDecode(t *testing.T) {
	const pl = 16
	for _, name := range []string{"lt", "raptor"} {
		for _, k := range []int{1000, 10000} {
			c := newGoldenCodec(t, name, k, pl)
			src := goldenSrc(k, pl)
			for _, ro := range receptionOrders {
				key := fmt.Sprintf("%s/%d/%s", name, k, ro.name)
				rng := rand.New(rand.NewSource(int64(k) + 7))
				dec := c.NewDecoder()
				for n := 0; !dec.Done(); n++ {
					if n > 3*k {
						t.Fatalf("%s: not done after %d arrivals", key, n)
					}
					idx, ok := ro.order(n, rng)
					if !ok {
						continue
					}
					pkts, err := c.EncodeRange(src, idx, idx+1)
					if err != nil {
						t.Fatalf("%s: EncodeRange(%d): %v", key, idx, err)
					}
					if _, err := dec.Add(idx, pkts[0]); err != nil {
						t.Fatalf("%s: Add(%d): %v", key, idx, err)
					}
				}
				got, err := dec.Source()
				if err != nil {
					t.Fatalf("%s: Source: %v", key, err)
				}
				row := goldenRow{received: dec.Received(), source: hashPackets(got)}
				if rc, ok := dec.(code.ReleaseCounter); ok {
					row.released = rc.Released()
				}
				if xc, ok := dec.(interface{ XORs() int }); ok {
					row.xors = xc.XORs()
				}
				t.Logf("%q: {%d, %d, %d, %q},", key, row.received, row.released, row.xors, row.source)
				checkGoldenRow(t, name, key, row, goldenDecode[key])
				if name == "raptor" && ro.name != "repair-only" && float64(row.received) > lossyBound*float64(k) {
					t.Errorf("%s: Received %d above %.2f·k", key, row.received, lossyBound)
				}
			}
		}
	}
}

func checkGoldenRow(t *testing.T, name, key string, got, want goldenRow) {
	t.Helper()
	if got.source != want.source {
		t.Errorf("%s: Source hash %s, want %s", key, got.source, want.source)
	}
	if name == "raptor" {
		if got != want {
			t.Errorf("%s: got %+v, want %+v", key, got, want)
		}
		return
	}
	// LT: the endgame's retry floor may cost a few packets; nothing else
	// about the decode may change.
	if got.received > want.received+8 {
		t.Errorf("%s: Received %d, more than 8 above the recorded %d", key, got.received, want.received)
	}
	if got.released <= 0 {
		t.Errorf("%s: Released %d after a coded decode, want > 0", key, got.released)
	}
}

// goldenWire is the recorded wire-identity hash per "codec/k/part".
var goldenWire = map[string]string{
	"lt/1000/neighbors":          "e6363cf12325092d",
	"lt/1000/encode-prefix":      "8229149e95bdc205",
	"lt/1000/encode-repair":      "6f8b7441795ae3bd",
	"lt/10000/neighbors":         "9588055a72ca7f0f",
	"lt/10000/encode-prefix":     "93d3699d74978903",
	"lt/10000/encode-repair":     "b6c06ddad34d8086",
	"raptor/1000/neighbors":      "cbf7c8a741e71f11",
	"raptor/1000/encode-prefix":  "6ecec5b1b107915d",
	"raptor/1000/encode-repair":  "665f748b8bd08102",
	"raptor/10000/neighbors":     "83f9c01ba23186b9",
	"raptor/10000/encode-prefix": "4dc1f517ff067d9d",
	"raptor/10000/encode-repair": "a327694fbbf5ebd0",
}

func TestGoldenWireIdentity(t *testing.T) {
	const pl = 32
	for _, name := range []string{"lt", "raptor"} {
		for _, k := range []int{1000, 10000} {
			c := newGoldenCodec(t, name, k, pl)
			prefix := fmt.Sprintf("%s/%d/", name, k)
			got := map[string]string{prefix + "neighbors": neighborHash(c)}
			src := goldenSrc(k, pl)
			sys, err := c.EncodeRange(src, 0, k)
			if err != nil {
				t.Fatal(err)
			}
			got[prefix+"encode-prefix"] = hashPackets(sys)
			repair, err := c.EncodeRange(src, 1<<30, 1<<30+512)
			if err != nil {
				t.Fatal(err)
			}
			got[prefix+"encode-repair"] = hashPackets(repair)
			for key, h := range got {
				t.Logf("%q: %q,", key, h)
				if h != goldenWire[key] {
					t.Errorf("%s: hash %s, want %s", key, h, goldenWire[key])
				}
			}
		}
	}
}

// neighborHash digests the neighbor sets of indices [0, 65536) and 1024
// indices around 2^31.
func neighborHash(c ratelessCodec) string {
	h := sha256.New()
	var nbuf []int
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	digest := func(idx uint32) {
		nbuf = c.NeighborsInto(idx, nbuf)
		put(idx)
		put(uint32(len(nbuf)))
		for _, nb := range nbuf {
			put(uint32(nb))
		}
	}
	for idx := uint32(0); idx < 1<<16; idx++ {
		digest(idx)
	}
	for idx := uint32(1<<31 - 512); idx < 1<<31+512; idx++ {
		digest(idx)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
