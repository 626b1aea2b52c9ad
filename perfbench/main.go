package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// metricDef names one reported metric. Moves is the end-to-end metric
// and workload a per-layer metric should move; the traced run prints it
// beside the value.
type metricDef struct {
	Name, Unit, Moves string
}

// endToEnd are printed by every untraced run, whatever the workload.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"latency_p50_ms", "ms", ""},
	{"latency_tail_ms", "ms", ""},
	{"throughput_per_s", "1/s", ""},
	{"peak_rss_mb", "MB", ""},
	{"alloc_mb_per_op", "MB", ""},
}

const (
	onWarmP50   = "latency_p50_ms on serve_warm"
	onWarmCap   = "latency_p50_ms and throughput_per_s on serve_warm"
	onChurnTail = "latency_tail_ms on serve_churn"
	onFig8Tput  = "throughput_per_s on fig8_cold"
	onMCTput    = "throughput_per_s on mc_deep"
	onHarness   = "none: checks the harness itself"
)

// perLayer are printed by every traced run. A layer a workload does not
// exercise reads 0 there — which is how fig8_cold shows no httpapi,
// cluster or journal activity.
var perLayer = []metricDef{
	{"vos.submit_ms", "ms", onWarmP50},
	{"vos.wait_ms", "ms", onWarmP50},
	{"vos.results_ms", "ms", onWarmP50},
	{"vos.results_kb", "KB", "alloc_mb_per_op on serve_warm"},
	{"vos.local_overhead_ms", "ms", "latency_p50_ms on fig8_cold and mc_deep"},
	{"httpapi.requests_per_op", "count", onWarmP50},
	{"httpapi.post_sweeps_ms", "ms", onWarmCap},
	{"httpapi.events_ms", "ms", onWarmCap},
	{"httpapi.get_results_ms", "ms", onWarmCap},
	{"httpapi.cache_entry_get_ms", "ms", onChurnTail},
	{"httpapi.cache_entry_put_ms", "ms", onChurnTail},
	{"httpapi.resp_kb_per_op", "KB", "alloc_mb_per_op on serve_warm"},
	{"cluster.peer_rpcs_per_op", "count", onWarmCap},
	{"cluster.peer_rpcs_per_op.subsweep", "count", onWarmCap},
	{"cluster.peer_rpcs_per_op.cache_get", "count", onWarmCap},
	{"cluster.peer_rpcs_per_op.cache_put", "count", onChurnTail},
	{"cluster.peer_rpc_ms", "ms", onWarmCap},
	{"cluster.subsweeps_per_op", "count", onWarmP50},
	{"cluster.peer_hit_ratio", "ratio", onWarmP50},
	{"cluster.exec_balance", "ratio", "throughput_per_s on serve_churn"},
	{"cluster.peer_errors", "count", "failed operations on serve_warm and serve_churn"},
	{"cluster.push_drops", "count", "failed operations on serve_warm and serve_churn"},
	{"engine.plan_ms", "ms", onWarmP50},
	{"engine.cache_get_us.mem", "us", onWarmP50},
	{"engine.cache_put_us.mem", "us", "latency_p50_ms on fig8_cold"},
	{"engine.cache_get_us.disk", "us", "latency_p50_ms on serve_churn"},
	{"engine.cache_put_us.disk", "us", "latency_p50_ms on serve_churn"},
	{"engine.cache_hit_ratio", "ratio", "latency_p50_ms on every workload"},
	{"engine.executions_per_op", "count", "latency_p50_ms on every workload (0 on serve_warm)"},
	{"engine.grouped_ratio", "ratio", onFig8Tput},
	{"engine.first_event_ms", "ms", "latency_p50_ms on fig8_cold"},
	{"engine.events_per_op", "count", "alloc_mb_per_op on serve_warm"},
	{"engine.retained_kb_per_op", "KB", "peak_rss_mb on fig8_cold and serve_churn"},
	{"charz.prepare_ms", "ms", onFig8Tput},
	{"charz.rungroup_ms", "ms", onFig8Tput},
	{"charz.ns_per_point_pattern", "ns", onFig8Tput},
	{"sim.events_per_pattern", "count", onFig8Tput},
	{"sim.ns_per_event", "ns", onFig8Tput},
	{"sim.retime_ok_ratio", "ratio", onFig8Tput},
	{"sim.resample_ns", "ns", onFig8Tput},
	{"metrics.addlanes_ns", "ns", onFig8Tput},
	{"model.calibrate_ms", "ms", "setup_s on mc_deep"},
	{"core.approx_new_us", "us", "alloc_mb_per_op on mc_deep"},
	{"apps.allocs_per_rep", "count", "alloc_mb_per_op on mc_deep"},
	{"apps.ns_per_sample.fir", "ns", onMCTput},
	{"apps.ns_per_sample.blur", "ns", onMCTput},
	{"journal.records_per_op", "count", onChurnTail},
	{"journal.records_per_op.sweep_accept", "count", onChurnTail},
	{"journal.records_per_op.sweep_point", "count", onChurnTail},
	{"journal.records_per_op.sweep_end", "count", onChurnTail},
	{"journal.bytes_per_op", "KB", onChurnTail},
	{"journal.append_us.synced", "us", onChurnTail},
	{"journal.append_us.unsynced", "us", onChurnTail},
	{"journal.replay_ms", "ms", "setup_s of a restarted serve_churn node"},
	{"load.lag_p90_ms", "ms", onHarness},
	{"load.backlog_max", "count", onHarness},
	{"trace.overhead_frac", "ratio", onHarness},
	{"trace.self_ms.harness", "ms", onHarness},
	{"trace.self_ms.vos", "ms", onWarmP50},
	{"trace.self_ms.httpapi", "ms", onWarmP50},
	{"trace.self_ms.cluster", "ms", onWarmP50},
	{"trace.self_sum_frac", "ratio", onHarness},
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// out, under the checkout's .bench_build, holds span files and node
	// state; the benchmark writes nothing outside the checkout.
	out string
}

// outcome is one run's result before printing.
type outcome struct {
	attempted, failed int
	// wrong counts checks that failed outside any single operation
	// (pinned digest, regime guard, isolation asserts).
	wrong   []string
	metrics map[string]float64
	// notes are printed on standard error beside the metrics.
	notes []string
}

func (o *outcome) fail(format string, args ...any) {
	o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload is one entry of BENCHMARK.json's workloads; the package
// documentation gives each one's reason.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"fig8_cold", fig8Cold},
	{"serve_warm", serveWarm},
	{"serve_churn", serveChurn},
	{"mc_deep", mcDeep},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced, one-at-a-time run and prints per-layer metrics")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of fig8_cold, serve_warm, serve_churn, mc_deep), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, out: out}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d nproc=%d\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	o, err := w.run(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]val{}}
	for _, d := range defs {
		v := o.metrics[d.Name]
		switch {
		case math.IsNaN(v):
			v = 0
		case math.IsInf(v, 1):
			v = math.MaxFloat32 // a failed or missed operation: worse than any real value
		}
		res.Metrics[d.Name] = val{v, d.Unit}
		tag := ""
		if d.Moves != "" {
			tag = "-> " + d.Moves
		}
		fmt.Fprintf(os.Stderr, "  %-38s %14.4f %-6s %s\n", d.Name, v, d.Unit, tag)
	}
	for _, n := range o.notes {
		fmt.Fprintf(os.Stderr, "  note: %s\n", n)
	}
	for _, wr := range o.wrong {
		fmt.Fprintf(os.Stderr, "  WRONG: %s\n", wr)
	}
	res.Correct = len(o.wrong) == 0 && o.failed == 0 && o.attempted > 0
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// repeatSetup boots n times and keeps the last boot, closing the
// others; set-up time is the median of the n, so one slow boot does not
// move it.
func repeatSetup[T any](n int, boot func(i int) (T, func(), error)) (T, float64, error) {
	var keep T
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, closer, err := boot(i)
		if err != nil {
			return keep, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			closer()
		} else {
			keep = v
		}
	}
	runtime.GC()
	return keep, median(times), nil
}

// seedStream derives distinct per-operation seeds from the run seed.
type seedStream struct{ state uint64 }

func (s *seedStream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Keep seeds positive and below 2^53 so they survive any JSON
	// round trip unchanged.
	return z>>11 | 1
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 { return readUint("/gc/heap/allocs:bytes") }

// heapAllocObjects is the cumulative count of heap allocations.
func heapAllocObjects() uint64 { return readUint("/gc/heap/allocs:objects") }

// liveHeapBytes is the heap marked live by the last GC.
func liveHeapBytes() uint64 {
	runtime.GC()
	return readUint("/gc/heap/live:bytes")
}

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsName names the filesystem holding dir, for the record.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}
