package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// observation is one reading of the program's own instruments: the obs
// registries (which cost a ReadMemStats each, so only traced runs read
// them), the services' Stats, and the process's memory and CPU counters.
type observation struct {
	at       time.Time
	front    *obs.Scrape   // the router's registry; nil without a router
	svc      []*obs.Scrape // each replica's Service.Metrics()
	handler  []*obs.Scrape // each replica's HTTP-layer registry
	stats    []serve.Stats // each replica's StatsLite
	mem      runtime.MemStats
	cpu      time.Duration
	scrapeOK bool
}

func observe(st *stack) *observation {
	o := &observation{at: time.Now(), scrapeOK: true}
	read := func(reg *obs.Registry) *obs.Scrape {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			o.scrapeOK = false
			return &obs.Scrape{Values: map[string]float64{}}
		}
		s, err := obs.ParseText(&buf)
		if err != nil {
			o.scrapeOK = false
			return &obs.Scrape{Values: map[string]float64{}}
		}
		return s
	}
	if st.router != nil {
		o.front = read(st.router.Metrics())
	}
	for i, svc := range st.svcs {
		o.svc = append(o.svc, read(svc.Metrics()))
		o.handler = append(o.handler, read(st.replicaRegs[i]))
		o.stats = append(o.stats, svc.StatsLite())
	}
	runtime.ReadMemStats(&o.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		o.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return o
}

// histDelta is the named histogram series' after-minus-before view; a
// series absent before (a cell that arrived by migration) counts from 0.
func histDelta(after, before *obs.Scrape, name, labels string) obs.HistView {
	if after == nil {
		return obs.HistView{}
	}
	av, ok := after.HistogramView(name, labels)
	if !ok {
		return obs.HistView{}
	}
	if before != nil {
		if bv, ok := before.HistogramView(name, labels); ok {
			av = av.Sub(bv)
		}
	}
	return av
}

func addView(a, b obs.HistView) obs.HistView {
	for i := range a.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Count += b.Count
	a.Sum += b.Sum
	a.Max = max(a.Max, b.Max)
	return a
}

func stageLabels(stage string) string { return `{stage="` + stage + `"}` }

func stageDelta(after, before *obs.Scrape, stage string) obs.StageStats {
	if after == nil {
		return obs.StageStats{}
	}
	st, _ := obs.DeltaStage(after, before, serve.StageMetricName, stageLabels(stage))
	return st
}

func counterDelta(after, before *obs.Scrape, series string) float64 {
	if after == nil {
		return 0
	}
	v := after.Values[series]
	if before != nil {
		v -= before.Values[series]
	}
	return v
}

// upstreamRequests is the replicas' /allocate + /release request count.
func upstreamRequests(o *observation) float64 {
	total := 0.0
	for _, h := range o.handler {
		total += h.Values[`pba_http_requests_total{path="/allocate"}`] + h.Values[`pba_http_requests_total{path="/release"}`]
	}
	return total
}

// probeMigrations moves cell 0 to the next replica and back and returns
// the moves and the snapshot bytes the router shipped for them.
func probeMigrations(st *stack, spans *spanLog) ([]migration, float64, error) {
	if spans != nil {
		spans.setOn(true)
		defer spans.setOn(false)
	}
	before := observe(st)
	var out []migration
	for i := 0; i < 2; i++ {
		mg, err := migrateCell(st, 0, spans)
		if err != nil {
			return out, 0, err
		}
		out = append(out, mg)
	}
	after := observe(st)
	return out, counterDelta(after.front, before.front, "pba_snapshot_bytes_total"), nil
}

// layers turns a traced phase into the per-layer metrics.
type layers struct {
	w             *workload
	st            *stack
	before, after *observation
	ph            *phase
	spans         []span
	dropped       int64
	ladder        *ladder
	e2e, baseE2E  map[string]metric

	probe      []migration // migration probe on the traced stack, with a router
	probeBytes float64
}

func (l *layers) metrics() map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	t := l.ph.totals()
	ops := float64(len(t.allocs) + len(t.rels))
	wall := l.after.at.Sub(l.before.at)

	// cluster: spans around the router's Backend calls and the replicas'
	// Service calls, the router's registry, and the migrations. Without a
	// router in the workload these come from the ladder's L5 rung.
	var routerAlloc, routerRel []time.Duration
	var routerTime, replicaTime time.Duration
	var clientAlloc []time.Duration
	linked, fronts := 0, 0
	clientIDs := map[uint64]bool{}
	for _, s := range l.spans {
		d := time.Duration(s.end - s.start)
		switch s.layer {
		case layerRouter:
			routerTime += d
			if s.op == opAllocate {
				routerAlloc = append(routerAlloc, d)
			} else if s.op == opRelease {
				routerRel = append(routerRel, d)
			}
		case layerReplica:
			replicaTime += d
		case layerClient:
			clientIDs[s.id] = true
			if s.op == opAllocate {
				clientAlloc = append(clientAlloc, d)
			}
		}
	}
	for _, s := range l.spans {
		if s.layer == layerFront && (s.op == opAllocate || s.op == opRelease) {
			fronts++
			if clientIDs[s.id] {
				linked++
			}
		}
	}
	migs, snapBytes := l.probe, l.probeBytes
	if l.st.router != nil {
		set("cluster.allocate_p50_ms", ms(quantile(routerAlloc, 0.5)), "ms")
		set("cluster.release_p50_ms", ms(quantile(routerRel, 0.5)), "ms")
		set("cluster.self_ms_per_op", ratio(float64(routerTime-replicaTime)/1e6, ops), "ms")
		set("cluster.route_ms_total", stageDelta(l.after.front, l.before.front, "route").TotalSeconds*1e3, "ms")
		set("cluster.commit_ms_total", stageDelta(l.after.front, l.before.front, "commit").TotalSeconds*1e3, "ms")
		set("cluster.upstream_requests_per_op", ratio(upstreamRequests(l.after)-upstreamRequests(l.before), ops), "1")
	} else if l.ladder != nil && l.ladder.router != nil {
		p := l.ladder.router
		set("cluster.allocate_p50_ms", ms(p.allocP50), "ms")
		set("cluster.release_p50_ms", ms(p.releaseP50), "ms")
		set("cluster.self_ms_per_op", ms(p.selfPerOp), "ms")
		set("cluster.route_ms_total", p.routeMs, "ms")
		set("cluster.commit_ms_total", p.commitMs, "ms")
		set("cluster.upstream_requests_per_op", p.upstreamPerOp, "1")
		migs, snapBytes = p.migrations, p.snapshotBytes
		fmt.Println("note: no router in this workload; cluster.* come from the ladder's L5 rung (router over loopback replicas) and its migration probe")
	}
	if l.st.router != nil {
		fmt.Println("note: cluster.migrate_* and snapshot bytes come from a probe moving cell 0 out and back after the traced phase")
	}
	fmt.Println("note: loadgen.late_p99_ms is not reported: it measures an open-loop generator, and both workloads are closed loops")
	var migTotal []time.Duration
	var pauseMax time.Duration
	var balls int64
	for _, mg := range migs {
		migTotal = append(migTotal, mg.total)
		pauseMax = max(pauseMax, mg.pause)
		balls += mg.balls
	}
	if len(migs) > 0 {
		set("cluster.migrate_ms_p50", ms(quantile(migTotal, 0.5)), "ms")
		set("cluster.migrate_pause_ms_max", ms(pauseMax), "ms")
		set("cluster.snapshot_bytes_per_ball", ratio(snapBytes, float64(balls)), "bytes")
	}

	// serve: the replicas' stage histograms and Stats.
	var alloc, rel, wait, epoch, decode, encode obs.HistView
	var route, commit float64
	var placed, epochs, messages float64
	var reqs, cellEpochs float64
	for i := range l.after.svc {
		a, b := l.after.svc[i], l.before.svc[i]
		alloc = addView(alloc, histDelta(a, b, serve.StageMetricName, stageLabels("allocate")))
		rel = addView(rel, histDelta(a, b, serve.StageMetricName, stageLabels("release")))
		wait = addView(wait, histDelta(a, b, serve.StageMetricName, stageLabels("batch_wait")))
		route += stageDelta(a, b, "route").TotalSeconds * 1e3
		commit += stageDelta(a, b, "commit").TotalSeconds * 1e3
		for g := 0; g < l.w.cells; g++ {
			cell := `{cell="` + strconv.Itoa(g) + `"}`
			epoch = addView(epoch, histDelta(a, b, "pba_cell_epoch_run_seconds", cell))
			placed += counterDelta(a, b, "pba_cell_placed_total"+cell)
			epochs += counterDelta(a, b, "pba_cell_epochs_total"+cell)
		}
		h, hb := l.after.handler[i], l.before.handler[i]
		decode = addView(decode, histDelta(h, hb, serve.StageMetricName, stageLabels("decode")))
		encode = addView(encode, histDelta(h, hb, serve.StageMetricName, stageLabels("encode")))
		reqs += float64(l.after.stats[i].Requests - l.before.stats[i].Requests)
		cellEpochs += float64(l.after.stats[i].Epochs - l.before.stats[i].Epochs)
		messages += float64(l.after.stats[i].Messages - l.before.stats[i].Messages)
	}
	if l.after.front != nil {
		decode = addView(decode, histDelta(l.after.front, l.before.front, serve.StageMetricName, stageLabels("decode")))
		encode = addView(encode, histDelta(l.after.front, l.before.front, serve.StageMetricName, stageLabels("encode")))
	}
	set("serve.allocate_p50_ms", float64(alloc.Quantile(0.5))/1e6, "ms")
	set("serve.release_p50_ms", float64(rel.Quantile(0.5))/1e6, "ms")
	set("serve.batch_wait_p50_ms", float64(wait.Quantile(0.5))/1e6, "ms")
	set("serve.batch_wait_p99_ms", float64(wait.Quantile(0.99))/1e6, "ms")
	set("serve.requests_per_epoch", ratio(reqs, cellEpochs), "1")
	set("serve.route_ms_total", route, "ms")
	set("serve.commit_ms_total", commit, "ms")

	// HTTP handler and wire codec.
	set("http.decode_us_p50", float64(decode.Quantile(0.5))/1e3, "us")
	set("http.encode_us_p50", float64(encode.Quantile(0.5))/1e3, "us")
	set("wire.bytes_per_op", ratio(float64(l.ph.wireBytes), ops), "bytes")

	// online and core.
	set("online.epoch_run_ms_p50", float64(epoch.Quantile(0.5))/1e6, "ms")
	set("online.balls_per_epoch", ratio(placed, epochs), "balls")
	set("online.pending_ratio", ratio(float64(t.pending), float64(t.balls)), "1")
	set("core.rounds_mean", ratio(float64(t.rounds), float64(t.okAllocs)), "rounds")
	set("core.messages_per_ball", ratio(messages, placed), "msgs")

	// The cost ladder.
	if lad := l.ladder; lad != nil && len(lad.rungs) == len(rungNames) {
		set("online.release_us_per_kball", ratio(float64(lad.online.releaseTime)/1e3, float64(lad.online.releaseBalls)/1e3), "us")
		set("core.epoch_ns_per_ball", ratio(float64(lad.online.epochTime), float64(lad.online.epochBalls)), "ns")
		set("tcp.self_ms_per_op", lad.rungs[3].opMeanMs()-lad.rungs[2].opMeanMs(), "ms")
		fmt.Printf("ladder: %d steps of client 0's stream, mean allocate ms per rung\n", l.w.sliceSteps)
		prev := 0.0
		for i, r := range lad.rungs {
			v := r.allocMeanMs()
			set("ladder."+r.name+"_alloc_ms", v, "ms")
			fmt.Printf("ladder L%d %-12s alloc %9.4f ms  (+%8.4f)  release %9.4f ms  n=%d+%d\n", i+1, r.name, v, v-prev, meanMs(r.release), len(r.alloc), len(r.release))
			prev = v
		}
		// The workload's client-observed allocate time against the rung
		// that matches its topology; the difference is unaccounted.
		top := lad.rungs[3]
		if l.st.router != nil {
			top = lad.rungs[5]
		}
		observed := meanMs(clientAlloc)
		set("ladder.residual_ms", observed-top.allocMeanMs(), "ms")
		fmt.Printf("ladder residual: client-observed allocate mean %.4f ms (traced phase, %d clients) - %s rung %.4f ms (1 sequential client) = %.4f ms unaccounted\n",
			observed, l.w.clients, top.name, top.allocMeanMs(), observed-top.allocMeanMs())
	}

	// Go runtime and process.
	mallocs := float64(l.after.mem.Mallocs - l.before.mem.Mallocs)
	set("runtime.allocs_per_op", ratio(mallocs, ops), "count")
	set("runtime.gc_cycles", float64(l.after.mem.NumGC-l.before.mem.NumGC), "count")
	set("runtime.gc_pause_ms_total", float64(l.after.mem.PauseTotalNs-l.before.mem.PauseTotalNs)/1e6, "ms")
	cpu := l.after.cpu - l.before.cpu
	set("process.cpu_ms_per_op", ratio(float64(cpu)/1e6, ops), "ms")
	set("process.cpu_util", ratio(cpu.Seconds(), wall.Seconds()*float64(runtime.NumCPU())), "1")

	// Tracing: its overhead against the untraced stack's phase of the same
	// length, and its coverage.
	set("trace.overhead_alloc_p50_ms", l.e2e["alloc_p50_ms"].Value-l.baseE2E["alloc_p50_ms"].Value, "ms")
	set("trace.overhead_release_p50_ms", l.e2e["release_p50_ms"].Value-l.baseE2E["release_p50_ms"].Value, "ms")
	set("trace.overhead_balls_per_s_pct", 100*ratio(l.e2e["balls_per_s"].Value-l.baseE2E["balls_per_s"].Value, l.baseE2E["balls_per_s"].Value), "%")
	set("trace.spans", float64(len(l.spans)), "count")
	set("trace.linked_ratio", ratio(float64(linked), float64(fronts)), "1")
	fmt.Printf("trace: %d spans (%d dropped), %d of %d front spans linked to a client request ID; untraced e2e alloc p50 %.4f ms vs traced %.4f ms\n",
		len(l.spans), l.dropped, linked, fronts, l.baseE2E["alloc_p50_ms"].Value, l.e2e["alloc_p50_ms"].Value)
	if !l.before.scrapeOK || !l.after.scrapeOK {
		fmt.Println("note: a registry scrape failed; registry-derived metrics may read 0")
	}
	return m
}

// writeSpans writes the traced run's spans as CSV, with the environment
// line as a comment header.
func writeSpans(dir, workload string, seed uint64, envLine []byte, spans *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# env %s\n# times in ns since the run's span base\nid,layer,op,start_ns,end_ns\n", envLine)
	ss := spans.snapshot()
	sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
	for _, s := range ss {
		fmt.Fprintf(w, "%d,%s,%s,%d,%d\n", s.id, layerNames[s.layer], opNames[s.op], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(ss), path)
	return nil
}
