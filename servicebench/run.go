package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// check is one correctness check's outcome.
type check struct {
	name   string
	ok     bool
	detail string
}

func (b *bench) run() (*result, error) {
	env := environment(b.traced)
	envLine, _ := json.Marshal(env)
	fmt.Printf("servicebench: workload=%s seed=%d seconds=%v trace=%v\n", b.w.name, b.seed, b.seconds.Seconds(), b.traced)
	fmt.Printf("env: %s\n", envLine)
	fmt.Printf("why: %s\n", b.w.why)
	baseGoroutines := runtime.NumGoroutine()

	var r *rig
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		r, d, err = b.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	fmt.Printf("setup: %d reps, seconds %v\n", len(setups), setups)

	// A traced run measures two phases of half the length each: one on
	// the untraced stack just set up, the baseline of the tracing
	// overhead, and one on a second stack built with the timing wrappers.
	length := b.seconds
	if b.traced {
		length = b.seconds / 2
	}
	ph := b.runPhase(r, length)
	t := ph.totals()
	res := &result{Attempted: t.attempted, Failed: t.failed}
	checks := b.checkRig(r, t, "")
	e2e := endToEnd(ph, t, median(setups))
	printE2E("", e2e, ph, t)

	var lay *layers
	if b.traced {
		b.spans = newSpanLog(spanCap)
		tr, trSetup, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		before := observe(tr.st)
		b.spans.setOn(true)
		tph := b.runPhase(tr, length)
		b.spans.setOn(false)
		after := observe(tr.st)
		tt := tph.totals()
		res.Attempted += tt.attempted
		res.Failed += tt.failed
		lay = &layers{w: b.w, st: tr.st, before: before, after: after, ph: tph, spans: b.spans.snapshot(), dropped: b.spans.dropped}
		if tr.st.router != nil {
			// Probe one cell move out and back on the traced stack, after
			// the traced phase.
			lay.probe, lay.probeBytes, err = probeMigrations(tr.st, b.spans)
			checks = append(checks, check{"traced_migration_probe", err == nil, errString(err)})
		}
		checks = append(checks, b.checkRig(tr, tt, "traced_")...)
		lay.e2e, lay.baseE2E = endToEnd(tph, tt, trSetup.Seconds()), e2e
		printE2E("traced ", lay.e2e, tph, tt)

		lad, err := runLadder(b.w, b.seed)
		if err != nil {
			checks = append(checks, check{"ladder", false, err.Error()})
		} else {
			lay.ladder = lad
			checks = append(checks, check{"ladder_fingerprints", lad.sameFingerprint(), lad.fingerprintDetail()})
		}
	}
	n := waitGoroutines(baseGoroutines, 5*time.Second)
	checks = append(checks, check{"goroutines_returned", n <= baseGoroutines, fmt.Sprintf("%d before set-up, %d after teardown", baseGoroutines, n)})

	res.Correct = true
	for _, c := range checks {
		status := "OK"
		if !c.ok {
			status = "FAIL"
			res.Correct = false
		}
		fmt.Printf("check %-26s %s  %s\n", c.name, status, c.detail)
	}

	if !b.traced {
		res.Metrics = map[string]metric{}
		for _, k := range e2eBounded {
			res.Metrics[k] = e2e[k]
		}
		return res, nil
	}
	res.Metrics = lay.metrics()
	if err := writeSpans(b.spansDir, b.w.name, b.seed, envLine, b.spans); err != nil {
		fmt.Printf("spans: not written: %v\n", err)
	}
	return res, nil
}

// checkRig runs the correctness checks on a rig after its phase t and
// tears the rig down. A wrong reply or a failed request fails the run; a
// failure that leaked or lost balls also fails conservation.
func (b *bench) checkRig(r *rig, t totals, prefix string) []check {
	var checks []check
	add := func(name string, ok bool, detail string) {
		checks = append(checks, check{prefix + name, ok, detail})
	}
	add("outputs", t.wrong == nil, errString(t.wrong))
	add("no_failed_requests", t.failed == 0, fmt.Sprintf("%d failed of %d attempted %s", t.failed, t.attempted, errString(t.firstErr)))
	live, err := r.st.live()
	granted, released := r.led.granted, r.led.released
	add("conservation", err == nil && granted-released == live,
		fmt.Sprintf("granted %d - released %d = %d, stack live %d %s", granted, released, granted-released, live, errString(err)))
	add("ids_unique", r.led.dups == 0, fmt.Sprintf("%d granted IDs, %d reused", granted, r.led.dups))
	if b.w.clients == 1 {
		got, err1 := r.st.fingerprint()
		want, err2 := replay(b.w, b.seed, r.steps)
		add("fingerprint_replay", err1 == nil && err2 == nil && got == want,
			fmt.Sprintf("stack %s, in-process replay of %d steps %s %s %s", short(got), r.steps, short(want), errString(err1), errString(err2)))
	}
	err = r.close()
	add("teardown", err == nil, errString(err))
	return checks
}

// e2eOrder lists the end-to-end metrics in report order; all of them
// are printed.
var e2eOrder = []string{"setup_s", "balls_per_s", "cpu_us_per_ball", "alloc_p50_ms", "alloc_p99_ms", "release_p50_ms", "error_ratio", "excess_mean", "rss_peak_mb"}

// e2eBounded are the end-to-end metrics the result line carries, the
// ones BENCHMARK.json bounds: the process's CPU time per ball granted
// (the kernel leaves steal out of it), the balance the paper is about,
// the memory peak, and set-up time. They hold when other tenants of a
// shared host take CPU from the run; wall-clock throughput and latency
// do not. With a busy-loop taking one CPU of a 2-CPU box, replica-heavy's
// balls_per_s fell 26% and its alloc_p50_ms rose 53%, while its
// cpu_us_per_ball moved 0.3%. So those are printed, not bounded.
// error_ratio is carried by the result's attempted/failed fields; a
// failed request fails the run, so on a passing run it reads 0.
var e2eBounded = []string{"setup_s", "cpu_us_per_ball", "excess_mean", "rss_peak_mb"}

// endToEnd is a phase's end-to-end figures: the rate over the phase's
// wall time, the process's CPU time per ball granted, latency
// percentiles over every request of the phase, and the process's peak
// resident set.
func endToEnd(ph *phase, t totals, setup float64) map[string]metric {
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"balls_per_s":     {float64(t.balls) / ph.wall.Seconds(), "balls/s"},
		"cpu_us_per_ball": {ratio(float64(ph.cpu)/1e3, float64(t.balls)), "us"},
		"alloc_p50_ms":    {ms(quantile(t.allocs, 0.50)), "ms"},
		"alloc_p99_ms":    {ms(quantile(t.allocs, 0.99)), "ms"},
		"release_p50_ms":  {ms(quantile(t.rels, 0.50)), "ms"},
		"error_ratio":     {ratio(float64(t.failed), float64(t.attempted)), "1"},
		"excess_mean":     {ratio(float64(t.excess), float64(t.okAllocs)), "bins"},
		"rss_peak_mb":     {float64(ph.rssPeak) / (1 << 20), "MB"},
	}
}

func printE2E(label string, e2e map[string]metric, ph *phase, t totals) {
	for _, k := range e2eOrder {
		m := e2e[k]
		note := ""
		switch k {
		case "balls_per_s":
			note = fmt.Sprintf("  (%d balls over %.3f s)", t.balls, ph.wall.Seconds())
		case "cpu_us_per_ball":
			note = fmt.Sprintf("  (process CPU %.3f s; host steal %.3f s over the phase)", ph.cpu.Seconds(), ph.steal.Seconds())
		case "alloc_p50_ms", "alloc_p99_ms":
			note = fmt.Sprintf("  (n=%d)", len(t.allocs))
		case "release_p50_ms":
			note = fmt.Sprintf("  (n=%d)", len(t.rels))
		case "error_ratio":
			note = fmt.Sprintf("  (%d failed of %d attempted)", t.failed, t.attempted)
		case "excess_mean":
			note = fmt.Sprintf("  (over %d allocate replies)", t.okAllocs)
		case "rss_peak_mb":
			note = "  (VmHWM at the end of the phase)"
		}
		fmt.Printf("%se2e %-16s %14.6g %s%s\n", label, k, m.Value, m.Unit, note)
	}
}

// quantile is the nearest-rank q-quantile of samples (sorted in place).
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(q*float64(len(samples))+0.5) - 1
	i = max(0, min(i, len(samples)-1))
	return samples[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 {
	if d == failedLatency {
		return float64(requestTimeout) / 1e6
	}
	return float64(d) / 1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func short(fp string) string {
	if len(fp) > 16 {
		return fp[:16]
	}
	return fp
}

// peakResidentBytes is the process's peak resident set (VmHWM in
// /proc/self/status).
func peakResidentBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// env is the environment line recorded with every result.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Traced     bool   `json:"traced"`
	// CPUProbeMs is the fastest of five SHA-256 passes over 4 MiB just
	// before set-up. On a shared host the same code can run ~30% slower
	// for minutes at a time; the probe tells those periods apart.
	CPUProbeMs float64 `json:"cpu_probe_ms"`
}

func environment(traced bool) env {
	return env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Commit: commit(), Traced: traced,
		CPUProbeMs: cpuProbe(),
	}
}

func cpuProbe() float64 {
	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		start := time.Now()
		sha256.Sum256(buf)
		best = min(best, time.Since(start))
	}
	return float64(best) / 1e6
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git in the working
// directory, when there is one.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown (" + ref + ")"
}

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the steal time /proc/stat reports so far (in 1/100 s
// ticks), summed over CPUs: time the hypervisor ran something else on
// this machine's CPUs.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}
