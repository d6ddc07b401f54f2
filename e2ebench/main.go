// Command e2ebench is the end-to-end benchmark of the fountain service. It
// runs the product path in one process over loopback UDP: seeded files
// are served by service.Service over transport.UDPServer, received by
// transport.UDPClient or MultiClient, decoded by client.Engine, and
// checked byte for byte against the generated bytes.
//
//	e2ebench --workload raptor-lossy --seed 1 --seconds 20 --trace 0
//
// A run is a fixed number of passes (set by --seconds and the workload's
// nominal pass time); each pass builds fresh services and receivers,
// downloads every file and tears down. The last line of standard output
// is one JSON object: the end-to-end metrics with --trace 0, and with
// --trace 1 the per-layer metrics of a run whose odd passes time every
// call into the modules (the even passes are the untraced reference that
// gives the tracing overhead). Spans are written to
// .bench_build/e2ebench-trace-<workload>-<seed>.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: raptor-lossy, lt-mirrors or catalog")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "approximate measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload raptor-lossy|lt-mirrors|catalog, --seconds >= 1, --trace 0|1")
		return 2
	}
	passes := max(1, int(math.Round(float64(*seconds)*float64(time.Second)/float64(w.nominal))))
	var tr *tracer
	if *trace == 1 {
		passes = max(2, passes)
		tr = newTracer()
	}

	xorGBps, copyGBps := machineRow()
	fmt.Printf("machine: GOMAXPROCS=%d xor=%.2f GB/s memmove=%.2f GB/s (1 KiB packets, 1 MiB arena); traffic over loopback UDP\n",
		runtime.GOMAXPROCS(0), xorGBps, copyGBps)

	// A short unmeasured pass first, so heap growth and first-use costs
	// do not land on the first measured pass.
	if _, err := runPass(w, uint64(*seed), -1, time.Second, nil); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: warm-up: %v\n", err)
		return 1
	}
	var results []*passResult
	for i := 0; i < passes; i++ {
		var ptr *tracer
		if tr != nil && i%2 == 1 {
			ptr = tr
		}
		runtime.GC() // start each pass from a collected heap
		res, err := runPass(w, uint64(*seed), i, 4*w.nominal, ptr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: pass %d: %v\n", i, err)
			return 1
		}
		if ptr != nil {
			res.replayDecodes(ptr, i)
		}
		results = append(results, res)
		printPass(i, res)
	}
	peak := peakRSSBytes()

	out := result{Correct: true}
	for _, r := range results {
		out.Correct = out.Correct && r.engineErrs == 0 && r.replayBad == 0 && r.kernel >= 0
		for _, d := range r.downloads {
			out.Attempted++
			if !d.ok {
				out.Failed++
			}
			out.Correct = out.Correct && !d.wrong
		}
	}
	if *trace == 0 {
		out.Metrics = endToEnd(results, peak)
	} else {
		out.Metrics = perLayer(w, results, tr, xorGBps, copyGBps)
		path := filepath.Join(".bench_build", fmt.Sprintf("e2ebench-trace-%s-%d.jsonl", w.name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: write spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %s\n", path)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func printPass(i int, r *passResult) {
	ok := 0
	for _, d := range r.downloads {
		if d.ok {
			ok++
		}
	}
	digest := uint64(0)
	if len(r.downloads) == 1 {
		digest = r.downloads[0].digest
	}
	var setups []float64
	for _, d := range r.setups {
		setups = append(setups, d.Seconds())
	}
	fmt.Printf("pass %d traced=%v: %d/%d verified, setup %.4fs, window %.3fs, cpu %.3fs, sent %d pkts (%.0f pps), kernel drops %d, injected %d/%d, index digest %016x\n",
		i, r.traced, ok, len(r.downloads), median(setups), r.window.Seconds(), r.cpu.Seconds(),
		r.svc.PacketsSent, ratio(float64(r.svc.PacketsSent), r.statsSpan.Seconds()),
		r.kernel, r.filtered, r.filtered+r.passed, digest)
}

// summary is the end-to-end figures of a set of passes.
type summary struct {
	setup, ttd50, ttd90, goodput, overhead, cpuPerMB float64
	downloads, failed                                int
	verifiedMB                                       float64
}

func summarize(results []*passResult) summary {
	var s summary
	var setups, ttds, cpuPerMB []float64
	var window time.Duration
	var handed, k float64
	for _, r := range results {
		for _, d := range r.setups {
			setups = append(setups, d.Seconds())
		}
		window += r.window
		var passMB float64
		for _, d := range r.downloads {
			if d.ok {
				passMB += float64(len(d.data)) / 1e6
			}
		}
		cpuPerMB = append(cpuPerMB, ratio(r.cpu.Seconds()*1e3, passMB))
		for _, d := range r.downloads {
			s.downloads++
			if !d.ok {
				// A failed download misses every latency limit.
				s.failed++
				ttds = append(ttds, r.deadline.Seconds())
				continue
			}
			ttds = append(ttds, d.end.Sub(d.start).Seconds())
			s.verifiedMB += float64(len(d.data)) / 1e6
			handed += float64(d.handed)
			k += float64(d.info.K)
		}
	}
	s.setup = median(setups)
	s.ttd50 = median(ttds)
	s.ttd90 = percentile(ttds, 90)
	s.goodput = ratio(s.verifiedMB*8, window.Seconds())
	s.overhead = ratio(handed, k)
	s.cpuPerMB = median(cpuPerMB)
	return s
}

func endToEnd(results []*passResult, peakRSS float64) map[string]metric {
	s := summarize(results)
	fmt.Printf("downloads: %d (ttd_p90_s is the nearest-rank 90th percentile of these %d samples)\n", s.downloads, s.downloads)
	return map[string]metric{
		"setup_s":       {s.setup, "s"},
		"ttd_p50_s":     {s.ttd50, "s"},
		"ttd_p90_s":     {s.ttd90, "s"},
		"goodput_mbps":  {s.goodput, "Mbit/s"},
		"overhead":      {s.overhead, "ratio"},
		"cpu_ms_per_mb": {s.cpuPerMB, "ms/MB"},
		"mem_peak_mb":   {peakRSS / 1e6, "MB"},
		// Rule-of-succession estimate of the failure probability: never 0,
		// and any failed download raises it.
		"fail_ratio": {float64(s.failed+1) / float64(s.downloads+1), "ratio"},
	}
}

func perLayer(w workload, results []*passResult, tr *tracer, xorGBps, copyGBps float64) map[string]metric {
	traced := map[int32]bool{}
	var tres, plain []*passResult
	for i, r := range results {
		if r.traced {
			traced[int32(i)] = true
			tres = append(tres, r)
		} else {
			plain = append(plain, r)
		}
	}
	var sent, rounds, catchup, debt, lookups, hits, misses uint64
	var statsSpan, replayAdd, replaySource time.Duration
	var kernel, serialSpan, filtered, passed, released int64
	var replayedMB, k, dup, recv float64
	var handed int
	var finish []float64
	for _, r := range tres {
		sent += r.svc.PacketsSent
		rounds += r.svc.RoundsEmitted
		catchup += r.svc.CatchupRounds
		debt += r.svc.DebtDropped
		lookups += r.svc.CacheLookups
		hits += r.svc.CacheHits
		misses += r.svc.CacheMisses
		statsSpan += r.statsSpan
		replayAdd += r.replayAdd
		replaySource += r.replaySource
		replayedMB += r.replayedMB
		released += r.released
		kernel += r.kernel
		serialSpan += r.serialSpan
		filtered += r.filtered
		passed += r.passed
		for _, d := range r.downloads {
			if !d.ok {
				continue
			}
			k += float64(d.info.K)
			handed += d.handed
			finish = append(finish, d.finish.Seconds()*1e3)
			for src := range d.ledger {
				st := d.eng.SourceStats(src)
				dup += float64(st.Duplicate)
				recv += float64(st.Received)
			}
		}
	}
	perPass := func(kind spanKind) float64 {
		var v []float64
		for p := range traced {
			_, _, d := tr.totals(kind, map[int32]bool{p: true})
			v = append(v, d.Seconds())
		}
		return median(v)
	}
	txCalls, txPkts, txTime := tr.totals(spanSend, traced)
	rxCalls, rxPkts, rxTime := tr.totals(spanRecv, traced)
	_, _, intake := tr.totals(spanIntake, traced)
	achieved := ratio(float64(sent), statsSpan.Seconds())
	decodeSPerMB := ratio((replayAdd + replaySource).Seconds(), replayedMB)
	ts, ps := summarize(tres), summarize(plain)
	fmt.Printf("tracing overhead: cpu %.2f vs %.2f ms/MB, ttd_p50 %.3f vs %.3f s (traced vs untraced passes)\n",
		ts.cpuPerMB, ps.cpuPerMB, ts.ttd50, ps.ttd50)
	fmt.Printf("send rate: offered %.0f pkts/s (burst rounds included), achieved %.0f pkts/s\n", w.offeredPPS(), achieved)
	return map[string]metric{
		"service.achieved_pps":        {achieved, "1/s"},
		"service.send_rate_ratio":     {ratio(achieved, w.offeredPPS()), "ratio"},
		"service.catchup_ratio":       {ratio(float64(catchup), float64(rounds)), "ratio"},
		"service.debt_dropped":        {float64(debt), "count"},
		"core.session_build_s":        {perPass(spanSession), "s"},
		"core.cache_hit_ratio":        {ratio(float64(hits), float64(lookups)), "ratio"},
		"core.cache_misses":           {float64(misses), "count"},
		"code.receiver_build_s":       {perPass(spanReceiver), "s"},
		"code.decode_s_per_mb":        {decodeSPerMB, "s/MB"},
		"code.release_xors_per_k":     {ratio(float64(released), k), "ratio"},
		"code.decode_xor_frac":        {ratio(ratio(1, decodeSPerMB), xorGBps*1e3), "ratio"},
		"client.intake_us_per_pkt":    {ratio((intake-replayAdd).Seconds()*1e6, float64(handed)), "us/pkt"},
		"client.duplicate_ratio":      {ratio(dup, recv), "ratio"},
		"client.finish_ms":            {median(finish), "ms"},
		"transport.tx_calls":          {float64(txCalls), "count"},
		"transport.tx_pkts_per_call":  {ratio(float64(txPkts), float64(txCalls)), "pkts/call"},
		"transport.tx_us_per_pkt":     {ratio(txTime.Seconds()*1e6, float64(txPkts)), "us/pkt"},
		"transport.rx_calls":          {float64(rxCalls), "count"},
		"transport.rx_pkts_per_call":  {ratio(float64(rxPkts), float64(rxCalls)), "pkts/call"},
		"transport.rx_wait_s":         {rxTime.Seconds(), "s"},
		"transport.kernel_drop_ratio": {ratio(float64(kernel), float64(serialSpan)), "ratio"},
		"bench.injected_drop_ratio":   {ratio(float64(filtered), float64(filtered+passed)), "ratio"},
		"bench.trace_cpu_overhead":    {ratio(ts.cpuPerMB, ps.cpuPerMB) - 1, "ratio"},
		"bench.trace_ttd_overhead":    {ratio(ts.ttd50, ps.ttd50) - 1, "ratio"},
		"machine.xor_gbps":            {xorGBps, "GB/s"},
		"machine.memmove_gbps":        {copyGBps, "GB/s"},
	}
}
