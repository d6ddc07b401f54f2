package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/proto"
)

func lazySessionForCache(t *testing.T, cache *BlockCache, seed int64) (*Session, *Session) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 60_000)
	rng.Read(data)
	cfg := DefaultConfig()
	cfg.Codec = proto.CodecCauchy
	cfg.Layers = 1
	cfg.PacketLen = 500
	cfg.Seed = seed
	lazy, err := NewSessionCached(data, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.Lazy() {
		t.Fatal("Cauchy session did not take the lazy path")
	}
	eager, err := NewSession(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lazy, eager
}

// TestBlockCacheBudgetUnderConcurrency: with many goroutines hammering
// get/put through Session.Payload on two sessions sharing one cache, the
// charged byte count observable from outside must never exceed the budget
// (eviction runs inside the same critical section as the insert), and the
// recorded peak may overshoot by at most one in-flight packet.
func TestBlockCacheBudgetUnderConcurrency(t *testing.T) {
	pktBytes := int64(PadPacketLen(500))
	capBytes := 32 * pktBytes
	cache := NewBlockCache(capBytes)
	s1, e1 := lazySessionForCache(t, cache, 101)
	s2, e2 := lazySessionForCache(t, cache, 102)

	stop := make(chan struct{})
	violation := make(chan int64, 1)
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if used := cache.Used(); used > capBytes {
				select {
				case violation <- used:
				default:
				}
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				sess, eager := s1, e1
				if g%2 == 1 {
					sess, eager = s2, e2
				}
				// Repair region only: the source prefix never touches the
				// cache by design.
				idx := sess.Codec().K() + rng.Intn(sess.Codec().N()-sess.Codec().K())
				if !bytes.Equal(sess.Payload(idx), eager.Payload(idx)) {
					t.Errorf("goroutine %d: lazy payload %d differs from eager", g, idx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	monWG.Wait()
	select {
	case used := <-violation:
		t.Fatalf("cache used %d exceeded budget %d", used, capBytes)
	default:
	}
	if used := cache.Used(); used > capBytes {
		t.Fatalf("final used %d > cap %d", used, capBytes)
	}
	// Peak is recorded before the same-lock eviction, so it may exceed the
	// budget by at most one packet insertion.
	if peak := cache.Peak(); peak > capBytes+pktBytes {
		t.Fatalf("peak %d blew past cap %d + one packet %d", peak, capBytes, pktBytes)
	}
	hits, misses := cache.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate traffic: hits=%d misses=%d", hits, misses)
	}
	// One probe = exactly one hit or one miss, even under concurrency: the
	// counts must tie out against the lookup count.
	st := cache.StatsSnapshot()
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("probe accounting broken: hits %d + misses %d != lookups %d",
			st.Hits, st.Misses, st.Lookups)
	}
}

// TestBlockCacheLookupAndEvictionAccounting: a deterministic probe
// sequence against a one-packet budget where every count is known in
// advance — each Payload on the repair region is exactly one lookup and
// one hit-or-miss, and each insert past the first evicts exactly the
// previous resident.
func TestBlockCacheLookupAndEvictionAccounting(t *testing.T) {
	pkt := int64(PadPacketLen(500))
	cache := NewBlockCache(pkt) // room for exactly one packet
	sess, eager := lazySessionForCache(t, cache, 104)
	k := sess.Codec().K()

	const nPkts = 4
	probes := 0
	for round := 0; round < 2; round++ {
		for i := 0; i < nPkts; i++ {
			idx := k + 3*i
			if !bytes.Equal(sess.Payload(idx), eager.Payload(idx)) {
				t.Fatalf("packet %d payload mismatch", idx)
			}
			probes++
		}
	}

	st := cache.StatsSnapshot()
	if st.Lookups != uint64(probes) {
		t.Fatalf("lookups = %d, want one per probe (%d)", st.Lookups, probes)
	}
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, st.Lookups)
	}
	// Cycling 4 distinct packets through a 1-packet cache: every probe
	// misses, and every insert but the first displaces its predecessor.
	if st.Misses != uint64(probes) || st.Hits != 0 {
		t.Fatalf("cycling working set should always miss: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.Evictions != uint64(probes-1) {
		t.Fatalf("evictions = %d, want %d (each insert displaces the resident packet)",
			st.Evictions, probes-1)
	}
	if st.EvictedBytes != uint64(probes-1)*uint64(pkt) {
		t.Fatalf("evicted bytes = %d, want %d", st.EvictedBytes, uint64(probes-1)*uint64(pkt))
	}
	if st.Entries != 1 || st.Used != pkt {
		t.Fatalf("resident = %d entries / %d bytes, want 1 packet (%d bytes)", st.Entries, st.Used, pkt)
	}

	// An immediate re-touch of the resident packet is the one guaranteed
	// hit; the counters must move by exactly (1 lookup, 1 hit, 0 misses).
	sess.Payload(k + 3*(nPkts-1))
	st2 := cache.StatsSnapshot()
	if st2.Lookups != st.Lookups+1 || st2.Hits != st.Hits+1 || st2.Misses != st.Misses {
		t.Fatalf("hit accounting: lookups %d→%d hits %d→%d misses %d→%d",
			st.Lookups, st2.Lookups, st.Hits, st2.Hits, st.Misses, st2.Misses)
	}
}

// TestBlockCacheSinglePacketRefill: a miss encodes and charges exactly the
// packet asked for; after that packet is evicted, re-touching it encodes
// it again — identical to its first encoding — and an immediate second
// touch hits.
func TestBlockCacheSinglePacketRefill(t *testing.T) {
	pkt := int64(PadPacketLen(500))
	cache := NewBlockCache(2 * pkt)
	sess, eager := lazySessionForCache(t, cache, 103)
	k, n := sess.Codec().K(), sess.Codec().N()

	first := k + (n-k)/2
	firstEnc := append([]byte(nil), sess.Payload(first)...)
	if !bytes.Equal(firstEnc, eager.Payload(first)) {
		t.Fatal("first encoding returned wrong payload")
	}
	if st := cache.StatsSnapshot(); st.Misses != 1 || st.Used != pkt || st.Entries != 1 {
		t.Fatalf("first miss: %d misses, %d bytes in %d entries; want 1 packet", st.Misses, st.Used, st.Entries)
	}

	// Evict it by filling the 2-packet budget with its neighbours.
	for idx := first + 1; idx <= first+2; idx++ {
		sess.Payload(idx)
	}
	if used := cache.Used(); used > 2*pkt {
		t.Fatalf("used %d > cap %d", used, 2*pkt)
	}

	// Re-touch: one miss, one packet encoded, and the budget still holds.
	_, missesBefore := cache.Stats()
	if !bytes.Equal(sess.Payload(first), firstEnc) {
		t.Fatal("re-encoded packet differs from its first encoding")
	}
	if _, misses := cache.Stats(); misses != missesBefore+1 {
		t.Fatalf("re-touch after eviction: misses %d→%d, want one more", missesBefore, misses)
	}
	if used := cache.Used(); used > 2*pkt {
		t.Fatalf("used %d > cap %d after the refill", used, 2*pkt)
	}

	// Second touch must hit the entry: no new miss.
	hitsBefore, missesBefore := cache.Stats()
	if !bytes.Equal(sess.Payload(first), firstEnc) {
		t.Fatal("cache hit returned wrong payload")
	}
	hitsAfter, missesAfter := cache.Stats()
	if missesAfter != missesBefore || hitsAfter != hitsBefore+1 {
		t.Fatalf("entry not hit: hits %d→%d misses %d→%d",
			hitsBefore, hitsAfter, missesBefore, missesAfter)
	}
}
