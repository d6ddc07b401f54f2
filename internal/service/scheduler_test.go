package service

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// batchCapture is a batch-capable sink that copies every packet (pooled
// buffers are recycled after SendBatch returns) keyed by (session, layer).
type batchCapture struct {
	mu  sync.Mutex
	seq map[[2]uint16][][]byte
}

func newBatchCapture() *batchCapture {
	return &batchCapture{seq: make(map[[2]uint16][][]byte)}
}

func (c *batchCapture) Send(layer int, pkt []byte) error {
	return c.SendBatch(layer, [][]byte{pkt})
}

func (c *batchCapture) SendBatch(layer int, pkts [][]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, pkt := range pkts {
		h, _, err := proto.ParseHeader(pkt)
		if err != nil {
			return err
		}
		key := [2]uint16{h.Session, uint16(layer)}
		c.seq[key] = append(c.seq[key], append([]byte(nil), pkt...))
	}
	return nil
}

func (c *batchCapture) minLen(session uint16, layers int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := -1
	for l := 0; l < layers; l++ {
		n := len(c.seq[[2]uint16{session, uint16(l)}])
		if m < 0 || n < m {
			m = n
		}
	}
	return m
}

// TestSchedulerEmissionOrderMatchesCarousel: per (session, layer), the
// scheduler's pooled, batched emission must be bit-identical to driving
// the session's carousel directly with the pre-refactor per-packet
// NextRound — same packets, same order, SP/burst flags included.
func TestSchedulerEmissionOrderMatchesCarousel(t *testing.T) {
	capt := newBatchCapture()
	svc := New(capt, Config{BaseRate: 50000, Shards: 3})
	defer svc.Close()

	type ses struct {
		id    uint16
		phase int
		sess  *core.Session
	}
	var sessions []ses
	for i, phase := range []int{0, 5, 12} {
		id := uint16(0x41 + i)
		cfg := sessionConfig(proto.CodecTornadoA, id, int64(100+i))
		sess, err := core.NewSession(randBytes(int64(i), 15_000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.AddPhased(sess, 0, phase); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, ses{id, phase, sess})
	}

	const wantPerLayer = 120
	deadline := time.Now().Add(20 * time.Second)
	for {
		done := true
		for _, s := range sessions {
			if capt.minLen(s.id, 4) < wantPerLayer {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler too slow to emit the comparison window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	svc.Close()

	for _, s := range sessions {
		// Reference: the pre-refactor emission path, packet-at-a-time.
		ref := make(map[int][][]byte)
		car := core.NewCarouselAt(s.sess, s.phase)
		for rounds := 0; rounds < 4*wantPerLayer; rounds++ {
			err := car.NextRound(func(layer int, pkt []byte) error {
				ref[layer] = append(ref[layer], append([]byte(nil), pkt...))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for layer := 0; layer < 4; layer++ {
			got := capt.seq[[2]uint16{s.id, uint16(layer)}]
			if len(got) < wantPerLayer {
				t.Fatalf("session %#x layer %d captured only %d packets", s.id, layer, len(got))
			}
			for i := 0; i < len(got) && i < len(ref[layer]); i++ {
				if !bytes.Equal(got[i], ref[layer][i]) {
					t.Fatalf("session %#x layer %d packet %d diverges from the carousel oracle",
						s.id, layer, i)
				}
			}
		}
	}
}

// nullBatchSink counts packets without retaining or allocating.
type nullBatchSink struct{ packets atomic.Uint64 }

func (n *nullBatchSink) Send(layer int, pkt []byte) error { n.packets.Add(1); return nil }

func (n *nullBatchSink) SendBatch(layer int, pkts [][]byte) error {
	n.packets.Add(uint64(len(pkts)))
	return nil
}

// TestConcurrentAddRemoveStats hammers the registry from many goroutines
// while the scheduler is emitting (run under -race in CI): concurrent
// Add/Remove/Stats/Lookup/Catalog must stay consistent, every Remove must
// win against in-flight emission, and Close must join all shard workers —
// observed as the packet counter freezing afterwards.
func TestConcurrentAddRemoveStats(t *testing.T) {
	sink := &nullBatchSink{}
	svc := New(sink, Config{BaseRate: 100000, Shards: 4})

	// A stable base session so emission never goes idle.
	baseCfg := sessionConfig(proto.CodecTornadoA, 0x1000, 1)
	base, err := core.NewSession(randBytes(1, 10_000), baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Add(base, 0); err != nil {
		t.Fatal(err)
	}

	const workers = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			id := uint16(0x2000 + w)
			cfg := sessionConfig(proto.CodecTornadoA, id, int64(w+2))
			sess, err := core.NewSession(randBytes(int64(w+2), 8_000), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			registered := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0:
					if !registered {
						if err := svc.Add(sess, 1+rng.Intn(100000)); err != nil {
							t.Errorf("worker %d add: %v", w, err)
							return
						}
						registered = true
					}
				case 1:
					if registered {
						if err := svc.Remove(id); err != nil {
							t.Errorf("worker %d remove: %v", w, err)
							return
						}
						registered = false
					}
				case 2:
					st := svc.Stats()
					if st.Sessions < 1 || st.Shards != 4 {
						t.Errorf("stats inconsistent: %+v", st)
						return
					}
				case 3:
					svc.Lookup(id)
					svc.Catalog()
				}
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if svc.Stats().PacketsSent == 0 {
		t.Fatal("scheduler never emitted under churn")
	}

	closed := make(chan struct{})
	go func() { svc.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not join the shard workers")
	}
	after := sink.packets.Load()
	time.Sleep(50 * time.Millisecond)
	if got := sink.packets.Load(); got != after {
		t.Fatalf("emission continued after Close: %d -> %d", after, got)
	}
}

// TestRemoveStopsEmissionPromptly: after Remove returns, not one more
// packet of that session may reach the transport.
func TestRemoveStopsEmissionPromptly(t *testing.T) {
	capt := newBatchCapture()
	svc := New(capt, Config{BaseRate: 100000, Shards: 2})
	defer svc.Close()
	cfg := sessionConfig(proto.CodecTornadoA, 0x77, 7)
	sess, err := core.NewSession(randBytes(7, 10_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Add(sess, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for capt.minLen(0x77, 1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never emitted")
		}
	}
	if err := svc.Remove(0x77); err != nil {
		t.Fatal(err)
	}
	n := capt.minLen(0x77, 4)
	time.Sleep(50 * time.Millisecond)
	if got := capt.minLen(0x77, 4); got != n {
		t.Fatalf("emission continued after Remove: %d -> %d packets", n, got)
	}
}

// TestEmitRoundZeroAlloc: steady-state emission of an eagerly encoded
// session through the pooled, batched path must not allocate — the
// property the sender benchmark suite gates in CI.
func TestEmitRoundZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool instrumentation allocates; the sender bench gates this without -race")
	}
	sink := &nullBatchSink{}
	svc := New(sink, Config{})
	defer svc.Close()
	cfg := sessionConfig(proto.CodecTornadoA, 0x88, 8)
	sess, err := core.NewSession(randBytes(8, 30_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	car, err := svc.AddManual(sess, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool, the scratch slices and the carousel index buffer.
	for i := 0; i < 64; i++ {
		if err := svc.EmitRound(car); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := svc.EmitRound(car); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state EmitRound allocates %.2f times per round", allocs)
	}
}

// TestSchedulerPacing: a session registered at a modest rate must emit at
// roughly that rate, not at shard saturation speed — the heap deadline is
// real pacing, not a busy loop.
func TestSchedulerPacing(t *testing.T) {
	sink := &nullBatchSink{}
	svc := New(sink, Config{Shards: 2})
	defer svc.Close()
	cfg := sessionConfig(proto.CodecTornadoA, 0x99, 9)
	cfg.Layers = 1
	sess, err := core.NewSession(randBytes(9, 5_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rate = 500 // single layer: one packet per round
	if err := svc.Add(sess, rate); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	got := svc.Stats().PacketsSent
	// 400 ms at 500 pps ≈ 200 packets; generous CI margins either way.
	if got < 50 || got > 800 {
		t.Fatalf("paced session emitted %d packets in 400ms at %d pps", got, rate)
	}
}

// TestManySessionsOneSchedulerGoroutineCount: registering hundreds of
// sessions must not add goroutines — the whole point of the shared
// scheduler. We observe it through the public surface: shard count stays
// fixed while sessions scale, and all sessions make progress.
func TestManySessionsShareShards(t *testing.T) {
	capt := newBatchCapture()
	svc := New(capt, Config{BaseRate: 20000, Shards: 2})
	defer svc.Close()
	const n = 100
	for i := 0; i < n; i++ {
		cfg := sessionConfig(proto.CodecTornadoA, uint16(0x3000+i), int64(i))
		cfg.Layers = 1
		sess, err := core.NewSession(randBytes(int64(i), 2_000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Add(sess, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.Sessions != n || st.Shards != 2 {
		t.Fatalf("stats = %+v, want %d sessions on 2 shards", svc.Stats(), n)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		stalled := 0
		for i := 0; i < n; i++ {
			if capt.minLen(uint16(0x3000+i), 1) < 3 {
				stalled++
			}
		}
		if stalled == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sessions made no progress", stalled, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pacedSession builds a one-layer session (one packet per round) with SP
// interval 16, so at R rounds/s it sends R·17/16 packets/s.
func pacedSession(t *testing.T, id uint16) *core.Session {
	t.Helper()
	cfg := sessionConfig(proto.CodecTornadoA, id, int64(id))
	cfg.Layers = 1
	cfg.SPInterval = 16
	sess, err := core.NewSession(randBytes(int64(id), 5_000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestPacerHoldsRate: over one second, a session paced at R rounds/s
// sends within 2% of R·(1 + 1/SPInterval) packets — the burst round
// before each SP included. Debt from late wakes is paid, not dropped, so
// the count does not drift below the offered rate.
func TestPacerHoldsRate(t *testing.T) {
	sink := &nullBatchSink{}
	svc := New(sink, Config{Shards: 1})
	defer svc.Close()
	const rate = 2000
	if err := svc.Add(pacedSession(t, 0xA1), rate); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	p0, t0 := svc.Stats().PacketsSent, time.Now()
	time.Sleep(time.Second)
	p1, t1 := svc.Stats().PacketsSent, time.Now()
	want := rate * (1 + 1.0/16) * t1.Sub(t0).Seconds()
	got := float64(p1 - p0)
	if got < 0.98*want || got > 1.02*want {
		t.Fatalf("sent %.0f packets in %v, want %.0f ±2%%", got, t1.Sub(t0), want)
	}
}

// TestStartOffsetSpread: first deadlines are a deterministic function of
// the session id, always within one interval, and sessions registered
// together are spread across it instead of firing in lockstep.
func TestStartOffsetSpread(t *testing.T) {
	for _, iv := range []time.Duration{time.Nanosecond, 7, 250 * time.Microsecond, 31250 * time.Microsecond, 10 * time.Second} {
		bins := make(map[int64]bool)
		for id := 0; id < 128; id++ {
			off := startOffset(uint16(id), iv)
			if off < 0 || off >= iv {
				t.Fatalf("interval %v: id %d offset %v outside [0, interval)", iv, id, off)
			}
			if off != startOffset(uint16(id), iv) {
				t.Fatalf("interval %v: id %d offset not deterministic", iv, id)
			}
			bins[int64(off)*128/int64(iv)] = true
		}
		if iv >= 128 && len(bins) < 64 {
			t.Fatalf("interval %v: 128 consecutive ids fill only %d of 128 bins", iv, len(bins))
		}
	}

	// The scheduler arms a new session's first deadline at that offset
	// from its registration.
	svc := New(&nullBatchSink{}, Config{Shards: 1})
	defer svc.Close()
	const rate = 1 // one round per second: the first deadline is still pending below
	sess := pacedSession(t, 0xA2)
	before := time.Since(svc.sched.epoch)
	if err := svc.Add(sess, rate); err != nil {
		t.Fatal(err)
	}
	after := time.Since(svc.sched.epoch)
	svc.mu.Lock()
	e := svc.sessions[0xA2]
	svc.mu.Unlock()
	e.emitMu.Lock()
	first := e.ev.next - startOffset(0xA2, e.ev.interval)
	e.emitMu.Unlock()
	if first < before || first > after {
		t.Fatalf("first deadline minus offset %v outside registration window [%v, %v]", first, before, after)
	}
}

// TestPacerDebtWithinHorizon: a rate no shard can emit keeps its session
// behind schedule by at most the debt horizon (plus the pop in flight),
// and the excess shows as horizon drops and late rounds.
func TestPacerDebtWithinHorizon(t *testing.T) {
	sink := &nullBatchSink{}
	svc := New(sink, Config{Shards: 1})
	defer svc.Close()
	if err := svc.Add(pacedSession(t, 0xA3), 50_000_000); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	e := svc.sessions[0xA3]
	svc.mu.Unlock()
	var worst time.Duration
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		e.emitMu.Lock()
		lag := time.Since(svc.sched.epoch) - e.ev.next
		e.emitMu.Unlock()
		worst = max(worst, lag)
	}
	if worst > 2*debtHorizon {
		t.Fatalf("session fell %v behind, horizon %v", worst, debtHorizon)
	}
	st := svc.Stats()
	if st.PacketsSent == 0 || st.DebtDropped == 0 || st.CatchupRounds == 0 {
		t.Fatalf("saturated session: sent %d, horizon drops %d, late rounds %d; want all > 0",
			st.PacketsSent, st.DebtDropped, st.CatchupRounds)
	}
}

// TestPacerNothingAfterRemove: a session deep in pacing debt, whose pops
// send many rounds in one flush, emits nothing once Remove returns — the
// pop's batch leaves before the emit lock is released.
func TestPacerNothingAfterRemove(t *testing.T) {
	capt := newBatchCapture()
	svc := New(capt, Config{Shards: 2})
	defer svc.Close()
	for i := 0; i < 20; i++ {
		id := uint16(0xB00 + i)
		if err := svc.Add(pacedSession(t, id), 50_000_000); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i%4) * time.Millisecond)
		if err := svc.Remove(id); err != nil {
			t.Fatal(err)
		}
		n := capt.minLen(id, 1)
		time.Sleep(5 * time.Millisecond)
		if got := capt.minLen(id, 1); got != n {
			t.Fatalf("session %#x emitted %d packets after Remove returned", id, got-n)
		}
	}
}
