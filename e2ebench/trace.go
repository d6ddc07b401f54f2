package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/transport"
)

// The traced run records one span around each call the benchmark makes
// into a module's public functions. Spans stay in memory and are written
// out when the run ends; nothing inside the modules changes.

type spanKind uint8

const (
	spanDownload spanKind = iota // first emission to verified bytes
	spanSession                  // core.NewSessionCached
	spanReceiver                 // client.NewMultiSource
	spanRegister                 // service.AddPhased
	spanSend                     // transport.UDPServer.SendBatch
	spanRecv                     // UDPClient.RecvBatch / MultiClient.RecvBatchFrom
	spanIntake                   // client.Engine.HandleBatchFrom
	spanFinish                   // client.Engine.File
	spanReplay                   // the accepted sequence replayed into core.Receiver.Handle
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"download", "core.NewSessionCached", "client.NewMultiSource", "service.AddPhased",
	"transport.SendBatch", "transport.Recv", "client.HandleBatchFrom", "client.File",
	"code.replay",
}

// span is one timed call. Spans of one download share (pass, session);
// the download span is the parent of every other span carrying its
// session. Receive spans carry transport.SessionAny: one batch may hold
// packets of several sessions, so their parent is the pass.
type span struct {
	kind  spanKind
	pass  int32
	sess  uint16
	n     int32 // packets the call carried
	start int64 // ns since the tracer epoch
	dur   int64 // ns
}

// tracer collects spans from the receive loop and the service's shard
// goroutines. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) record(kind spanKind, pass int32, sess uint16, n int, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{kind: kind, pass: pass, sess: sess, n: int32(n),
		start: int64(start.Sub(t.epoch)), dur: int64(end.Sub(start))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// totals sums the spans of one kind over the given passes: calls, packets
// carried, and time.
func (t *tracer) totals(kind spanKind, passes map[int32]bool) (calls, pkts int64, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.kind == kind && passes[s.pass] {
			calls++
			pkts += int64(s.n)
			d += time.Duration(s.dur)
		}
	}
	return calls, pkts, d
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		parent := "download"
		switch {
		case s.kind == spanDownload:
			parent = "pass"
		case s.sess == transport.SessionAny:
			parent = "pass"
		}
		fmt.Fprintf(w, `{"name":%q,"pass":%d,"session":%d,"parent":%q,"n":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			spanNames[s.kind], s.pass, s.sess, parent, s.n, s.start, s.start+s.dur)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSender is the benchmark's transport.Sender around a UDPServer: it
// forwards every call and times SendBatch, the service's only send path.
type timedSender struct {
	udp  *transport.UDPServer
	tr   *tracer
	pass int32
}

func (s timedSender) Send(layer int, pkt []byte) error { return s.udp.Send(layer, pkt) }

func (s timedSender) SendBatch(layer int, pkts [][]byte) error {
	start := time.Now()
	err := s.udp.SendBatch(layer, pkts)
	end := time.Now()
	sess := transport.SessionAny
	if len(pkts) > 0 {
		if h, _, perr := proto.ParseHeader(pkts[0]); perr == nil {
			sess = h.Session
		}
	}
	s.tr.record(spanSend, s.pass, sess, len(pkts), start, end)
	return err
}
