package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/transport"
)

// workload is one traffic mix. Every workload is open loop: each session
// is paced by the service's scheduler at its offered rate whatever the
// receivers do.
type workload struct {
	name       string
	codec      uint8
	minBytes   int           // file sizes are spread evenly over
	maxBytes   int           // [minBytes, maxBytes]
	files      int           // sessions (files) per pass
	mirrors    int           // services carrying every session
	rate       int           // pacing in rounds/s per session per mirror
	loss       float64       // injected receive-side loss per mirror
	cacheBytes int64         // service block-cache budget (0 = service default)
	wildcard   bool          // one SessionAny socket receives every session
	nominal    time.Duration // expected wall time of one pass; sizes a run
}

var workloads = []workload{
	// One mirror, a receiver joined at stream start, 10% loss: raptor's
	// weakest regime, where its decoder endgame sets overhead.
	{
		name:  "raptor-lossy",
		codec: proto.CodecRaptor, minBytes: 10 << 20, maxBytes: 10 << 20, files: 1, mirrors: 1,
		rate: 4000, loss: 0.10, nominal: 4500 * time.Millisecond,
	},
	// Two uncoordinated LT mirrors at 5% loss each into one MultiClient:
	// XOR work per packet on both ends, and multi-source intake.
	{
		name:  "lt-mirrors",
		codec: proto.CodecLT, minBytes: 10 << 20, maxBytes: 10 << 20, files: 1, mirrors: 2,
		rate: 1500, loss: 0.05, nominal: 4 * time.Second,
	},
	// Many small MDS files on one wildcard socket, with a cache budget
	// below their repair bytes: the scheduler heap holds every session,
	// cache misses drive RS range encoding, and the client demultiplexes
	// sessions. The rate keeps the process below CPU saturation.
	{
		name:  "catalog",
		codec: proto.CodecCauchy, minBytes: 64 << 10, maxBytes: 192 << 10, files: 128, mirrors: 1,
		rate: 32, cacheBytes: 8 << 20, wildcard: true, nominal: 6500 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spInterval is the carousel rounds between synchronization points. A
// single-layer carousel sends one extra (burst) round before each one,
// so a session paced at r rounds/s emits r*(spInterval+1)/spInterval
// packets/s.
const spInterval = 16

// offeredPPS is the packets per second the workload's senders are
// configured to emit, summed over sessions and mirrors.
func (w workload) offeredPPS() float64 {
	return float64(w.rate*w.files*w.mirrors) * (spInterval + 1) / spInterval
}

// payloadLen is the payload bytes per packet of every workload.
const payloadLen = 1024

// download is one file of a pass: its generated bytes, its sessions (one
// per mirror) and its receiver.
type download struct {
	id     uint16
	data   []byte
	sess   []*core.Session
	info   proto.SessionInfo
	eng    *client.Engine
	ledger []srcLedger // per source (mirror)

	start  time.Time // first emission: the session's first registration
	end    time.Time // verified bytes (or the pass deadline)
	done   bool      // the engine reported the file decodable
	ok     bool      // Engine.File returned the generated bytes
	wrong  bool      // Engine.File returned other bytes without an error
	handed int       // packets processed by the engine (duplicates included)
	digest uint64    // FNV-1a over the processed indices, in order
	finish time.Duration

	rec []accepted // processed (index, payload) pairs, kept in traced passes
}

type accepted struct {
	idx     int
	payload []byte
}

// passResult is what one pass measured.
type passResult struct {
	traced    bool
	setups    []time.Duration
	window    time.Duration // first emission to last verified file
	cpu       time.Duration // process CPU over the window
	statsSpan time.Duration // first emission to the service counter read
	downloads []*download
	deadline  time.Duration // TTD charged to a download that failed

	svc        service.Stats // summed over mirrors
	engineErrs int           // stray or malformed datagrams
	kernel     int64         // kernel drops: engine-counted gaps minus injected
	injected   int64         // injected drops inside the engine's gaps
	serialSpan int64         // serials covered by the engine's view
	filtered   int64         // every injected drop
	passed     int64         // every packet the loss filter let through

	replayAdd    time.Duration // decoder Add time of the replayed sequences
	replaySource time.Duration // decoder Source time after them
	released     int64         // decoder release XORs (0 where uncounted)
	replayBad    int           // replays that did not decode like the live engine
	replayedMB   float64
}

// setupReps is how many times a pass sets up its sessions and receivers;
// the last set-up is the one that downloads, and set-up time is the
// median over all of them.
const setupReps = 4

// passSeed derives the inputs of pass i of a run from the run's seed.
func passSeed(seed uint64, pass int) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(pass)+0x7a55))
}

// runPass sets up the workload's services and receivers over loopback
// UDP, downloads every file, verifies it byte for byte, and tears
// everything down. With a tracer it times calls into each module and
// keeps the accepted packets for the decode replay.
func runPass(w workload, seed uint64, pass int, deadline time.Duration, tr *tracer) (*passResult, error) {
	ps := passSeed(seed, pass)
	p32 := int32(pass)
	res := &passResult{traced: tr != nil}
	loss := newLossFilter(ps, w.loss)

	type mirror struct {
		udp *transport.UDPServer
		svc *service.Service
	}
	mirrors := make([]mirror, w.mirrors)
	addrs := make([]*net.UDPAddr, w.mirrors)
	for i := range mirrors {
		udp, err := transport.NewUDPServer("127.0.0.1:0", 1)
		if err != nil {
			return nil, fmt.Errorf("mirror %d: %w", i, err)
		}
		defer udp.Close()
		var tx transport.PacketSender = udp
		if tr != nil {
			tx = timedSender{udp: udp, tr: tr, pass: p32}
		}
		svc := service.New(tx, service.Config{CacheBytes: w.cacheBytes})
		defer svc.Close()
		mirrors[i] = mirror{udp, svc}
		addrs[i] = udp.Addr()
	}

	dls := make([]*download, w.files)
	byID := make(map[uint16]*download, w.files)
	for i := range dls {
		// Sizes are spread evenly over the range with a seeded jitter of
		// under one step, so every seed has the same size distribution.
		fs := splitmix64(ps ^ uint64(i)<<20)
		size := w.minBytes
		if w.files > 1 {
			step := float64(w.maxBytes-w.minBytes) / float64(w.files-1)
			size += int(step * (float64(i) + float64(fs%1024)/1024 - 0.5))
			size = min(max(size, w.minBytes), w.maxBytes)
		}
		d := &download{id: uint16(i + 1), data: make([]byte, size),
			sess: make([]*core.Session, w.mirrors), ledger: make([]srcLedger, w.mirrors)}
		fillBytes(d.data, fs)
		dls[i], byID[d.id] = d, d
	}

	// Receive sockets, subscribed before the first packet is sent.
	var recv func(time.Duration) (int, [][]byte, error)
	subKey := dls[0].id
	switch {
	case w.mirrors > 1:
		mc, err := transport.NewMultiClient(addrs, dls[0].id, 0)
		if err != nil {
			return nil, err
		}
		defer mc.Close()
		recv = mc.RecvBatchFrom
	default:
		var c *transport.UDPClient
		var err error
		if w.wildcard {
			subKey = transport.SessionAny
			c, err = transport.NewUDPClient(addrs[0], 0)
		} else {
			c, err = transport.NewUDPClientSession(addrs[0], subKey, 0)
		}
		if err != nil {
			return nil, err
		}
		defer c.Close()
		var rb transport.RecvBatch
		defer rb.Free()
		recv = func(timeout time.Duration) (int, [][]byte, error) {
			_, err := c.RecvBatch(&rb, timeout)
			return 0, rb.Packets(), err
		}
	}
	for i, m := range mirrors {
		if err := waitSubscribed(m.udp, subKey); err != nil {
			return nil, fmt.Errorf("mirror %d: %w", i, err)
		}
	}

	// Set-up, timed: from file bytes in memory to sessions encoded (or
	// precoded) and receivers built. The last repetition is kept.
	caches := make([]*core.BlockCache, len(mirrors))
	for i, m := range mirrors {
		caches[i] = m.svc.Cache()
	}
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // each set-up starts from a collected heap
		var rtr *tracer
		if rep == setupReps-1 {
			rtr = tr
		}
		d, err := setUp(w, dls, caches, ps, rtr, p32)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, d)
	}
	cpu0 := cpuTime()
	for _, d := range dls {
		for m := range mirrors {
			// Mirrors of a rateless session start at uncoordinated
			// positions of its stream.
			phase := 0
			if m > 0 {
				phase = int(splitmix64(ps^uint64(d.id)<<8^uint64(m)) % (1 << 24))
			}
			s0 := time.Now()
			if m == 0 {
				d.start = s0
			}
			if err := mirrors[m].svc.AddPhased(d.sess[m], w.rate, phase); err != nil {
				return nil, fmt.Errorf("register %d: %w", d.id, err)
			}
			tr.record(spanRegister, p32, d.id, 0, s0, time.Now())
		}
	}

	// Download until every file is verified or the deadline passes.
	first := dls[0].start
	res.deadline = deadline
	giveUp := first.Add(deadline)
	remaining := len(dls) // downloads the engine has not completed
	var kept [][]byte
	var gaps []int64
	// A finisher goroutine reassembles and verifies completed files, so
	// the receive loop keeps draining the socket meanwhile. The channel
	// holds every download, so sends never block.
	finished := make(chan *download, len(dls))
	var fwg sync.WaitGroup
	finish := func(d *download) {
		f0 := time.Now()
		file, err := d.eng.File()
		d.end = time.Now()
		d.finish = d.end.Sub(f0)
		tr.record(spanFinish, p32, d.id, 0, f0, d.end)
		tr.record(spanDownload, p32, d.id, d.handed, d.start, d.end)
		d.ok = err == nil && bytes.Equal(file, d.data)
		d.wrong = err == nil && !d.ok
	}
	fwg.Add(1)
	go func() {
		defer fwg.Done()
		for d := range finished {
			finish(d)
		}
	}()
	handle := func(d *download, src int) {
		if d == nil || len(kept) == 0 {
			return
		}
		h0 := time.Now()
		done, err := d.eng.HandleBatchFrom(src, kept)
		tr.record(spanIntake, p32, d.id, len(kept), h0, time.Now())
		if err != nil {
			res.engineErrs++
		}
		// The engine stops at the packet that completes the file; the
		// rest of the batch never reaches it.
		total, _, _ := d.eng.Stats()
		n := total - d.handed
		d.handed = total
		for i, p := range kept[:n] {
			d.ledger[src].injected += gaps[i]
			idx := binary.BigEndian.Uint32(p[0:4])
			d.digest = fnv64(d.digest, idx)
			if tr != nil {
				pl := append([]byte(nil), p[proto.HeaderLen:len(p)-proto.TagLen]...)
				d.rec = append(d.rec, accepted{int(idx), pl})
			}
		}
		if done {
			d.done = true
			remaining--
			finished <- d
		}
	}
	for _, d := range dls {
		d.digest = fnvOffset
	}
	var recvErr error
	for remaining > 0 && recvErr == nil && time.Now().Before(giveUp) {
		r0 := time.Now()
		src, pkts, err := recv(50 * time.Millisecond)
		tr.record(spanRecv, p32, transport.SessionAny, len(pkts), r0, time.Now())
		if errors.Is(err, transport.ErrTimeout) {
			continue
		}
		if err != nil {
			recvErr = fmt.Errorf("receive: %w", err)
			break
		}
		// Demultiplex by session: consecutive packets of one session go
		// to its engine as one batch, through the loss filter.
		var cur *download
		kept, gaps = kept[:0], gaps[:0]
		for _, p := range pkts {
			h, _, perr := proto.ParseHeader(p)
			if perr != nil {
				res.engineErrs++
				continue
			}
			d := byID[h.Session]
			if d != cur {
				handle(cur, src)
				cur = d
				kept, gaps = kept[:0], gaps[:0]
			}
			if d == nil || d.done {
				continue
			}
			l := &d.ledger[src]
			if loss.drop(src, h.Group, h.Serial) {
				l.drop()
				continue
			}
			kept = append(kept, p)
			gaps = append(gaps, l.pass())
		}
		handle(cur, src)
	}
	close(finished)
	fwg.Wait()
	if recvErr != nil {
		return nil, recvErr
	}
	end := time.Now()
	res.cpu = cpuTime() - cpu0
	for _, m := range mirrors {
		st := m.svc.Stats()
		res.svc.PacketsSent += st.PacketsSent
		res.svc.RoundsEmitted += st.RoundsEmitted
		res.svc.CatchupRounds += st.CatchupRounds
		res.svc.DebtDropped += st.DebtDropped
		res.svc.CacheLookups += st.CacheLookups
		res.svc.CacheHits += st.CacheHits
		res.svc.CacheMisses += st.CacheMisses
	}
	res.statsSpan = end.Sub(first)
	last := first
	for _, d := range dls {
		if !d.done {
			d.end = giveUp
		}
		if d.end.After(last) {
			last = d.end
		}
		for src := range d.ledger {
			st := d.eng.SourceStats(src)
			l := d.ledger[src]
			res.kernel += int64(st.Lost) - l.injected
			res.injected += l.injected
			res.serialSpan += int64(st.Received + st.Lost)
			res.filtered += l.filtered
			res.passed += l.passed
		}
	}
	res.window = last.Sub(first)
	res.downloads = dls
	return res, nil
}

// replayDecodes feeds each verified download's processed packets, in
// order, into a fresh decoder of the session's codec and times Add and
// Source: the codec's work alone, which for MDS codes happens in Source.
// Run after the pass, outside every timed window.
func (res *passResult) replayDecodes(tr *tracer, pass int) {
	for _, d := range res.downloads {
		if !d.ok {
			continue
		}
		dec := d.sess[0].Codec().NewDecoder()
		adds, done := 0, false
		s0 := time.Now()
		for _, a := range d.rec {
			adds++
			if done, _ = dec.Add(a.idx, a.payload); done {
				break
			}
		}
		s1 := time.Now()
		src, err := dec.Source()
		s2 := time.Now()
		tr.record(spanReplay, int32(pass), d.id, adds, s0, s2)
		res.replayAdd += s1.Sub(s0)
		res.replaySource += s2.Sub(s1)
		res.replayedMB += float64(len(d.data)) / 1e6
		if err != nil || !done || adds != d.handed {
			res.replayBad++
		} else if file, err := code.Join(src, len(d.data)); err != nil || !bytes.Equal(file, d.data) {
			res.replayBad++
		}
		if rc, ok := dec.(code.ReleaseCounter); ok {
			res.released += int64(rc.Released())
		}
		d.rec = nil
	}
}

// setUp encodes (or precodes) every file's session on every mirror and
// builds its receiver, returning the wall time taken.
func setUp(w workload, dls []*download, caches []*core.BlockCache, ps uint64, tr *tracer, pass int32) (time.Duration, error) {
	t0 := time.Now()
	for _, d := range dls {
		cfg := core.Config{
			Codec: w.codec, PacketLen: payloadLen, Stretch: 2, Layers: 1, SPInterval: spInterval,
			Seed: int64(splitmix64(ps ^ uint64(d.id)<<32 ^ 0xc0de)), Session: d.id,
		}
		for m, cache := range caches {
			s0 := time.Now()
			sess, err := core.NewSessionCached(d.data, cfg, cache)
			tr.record(spanSession, pass, d.id, 0, s0, time.Now())
			if err != nil {
				return 0, fmt.Errorf("session %d: %w", d.id, err)
			}
			d.sess[m] = sess
		}
		d.info = d.sess[0].Info()
		s0 := time.Now()
		eng, err := client.NewMultiSource(d.info, len(caches), 0, nil)
		tr.record(spanReceiver, pass, d.id, 0, s0, time.Now())
		if err != nil {
			return 0, fmt.Errorf("receiver %d: %w", d.id, err)
		}
		d.eng = eng
	}
	return time.Since(t0), nil
}

// waitSubscribed waits until the server has registered the receiver's
// subscription, so no packet is sent before a receiver listens.
func waitSubscribed(udp *transport.UDPServer, session uint16) error {
	for start := time.Now(); time.Since(start) < 5*time.Second; time.Sleep(time.Millisecond) {
		if udp.SessionSubscribers(session, 0) > 0 {
			return nil
		}
	}
	return errors.New("subscription not registered within 5s")
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv64 folds one packet index into an FNV-1a digest.
func fnv64(h uint64, idx uint32) uint64 {
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(idx >> (8 * i)))
		h *= fnvPrime
	}
	return h
}
