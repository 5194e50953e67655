package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the mapper sees, reported by every
// untraced run; BENCHMARK.json bounds each of them.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, reported by every traced run.
// A few are derived, differences of two timed calls; README.md marks them.
var perLayer = []metricDef{
	{"graph.parse_ms", "ms"},
	{"graph.problem_alloc_mb", "MB"},
	{"graph.validate_ms", "ms"},
	{"graph.toposort_ms", "ms"},
	{"graph.fingerprint_ms", "ms"},
	{"topology.build_ms", "ms"},
	{"paths.table_ms", "ms"},
	{"cluster.cluster_ms", "ms"},
	{"ideal.derive_ms", "ms"},
	{"critical.analyze_ms", "ms"},
	{"schedule.evaluator_build_ms", "ms"},
	{"schedule.ns_per_trial", "ns"},
	{"schedule.evaluate_ms", "ms"},
	{"core.new_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.analyse_ms", "ms"},
	{"core.place_ms", "ms"},
	{"core.refine_ms", "ms"},
	{"search.trials", "count"},
	{"search.improved_ratio", "ratio"},
	{"search.bound_hit_ratio", "ratio"},
	{"search.quality_pct_over_bound", "%"},
	{"service.cold_ms", "ms"},
	{"service.hit_us", "us"},
	{"service.remap_ms", "ms"},
	{"service.fingerprint_us", "us"},
	{"mapserve.miss_ms", "ms"},
	{"mapserve.hit_ms", "ms"},
	{"mapserve.remap_ms", "ms"},
	{"mapserve.wire_ms", "ms"},
	{"trace.span_sum_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// result is one workload's run: the gated metrics, informational figures
// printed alongside them, raw samples for -out, and the oracle's verdict.
type result struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]float64     `json:"metrics"`
	Info      map[string]metricValue `json:"info"`
	Samples   map[string][]float64   `json:"samples"`
	Failures  []string               `json:"failures,omitempty"`
	Spans     []span                 `json:"-"`
}

func newResult(name string, traced bool) *result {
	return &result{
		Workload: name,
		Traced:   traced,
		Metrics:  map[string]float64{},
		Info:     map[string]metricValue{},
		Samples:  map[string][]float64{},
	}
}

// fail counts one failed operation and keeps the first few messages.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// info records an informational figure: printed, never gated.
func (r *result) info(name string, v float64, unit string) {
	r.Info[name] = metricValue{Value: v, Unit: unit}
}

// sample appends one raw observation to a named series.
func (r *result) sample(name string, v float64) {
	r.Samples[name] = append(r.Samples[name], v)
}

// defs returns the metric set this result must report.
func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// lines renders every metric, then every informational figure, as
// "workload metric value unit".
func (r *result) lines() []string {
	var out []string
	for _, d := range r.defs() {
		out = append(out, fmt.Sprintf("%s %s %s %s", r.Workload, d.name, fmtValue(r.Metrics[d.name]), d.unit))
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s %s %s %s", r.Workload, k, fmtValue(r.Info[k].Value), r.Info[k].Unit))
	}
	return out
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// check reports a result that lacks one of its metrics — a benchmark bug.
func (r *result) check() error {
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s missing or not finite", r.Workload, d.name)
		}
	}
	return nil
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks. It does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// speedMetrics fills throughput_per_s and the latency percentiles. lat
// holds the per-operation latencies, starts[i] is when operation i began
// and end when the loop ended, both measured from the start of the loop.
//
// With window > 0 the figures come from the run's fastest window of window
// consecutive operations, the one that took the least wall time, rather
// than from the whole run. A window must be a whole number of passes over
// the workload's instance set, so that every window holds the same work;
// the host's speed drifts by a third or more over seconds, and the fastest
// window is the one it disturbed least. A trailing partial window is
// ignored; a run shorter than one window counts as one. With window = 0
// the whole run is the window. The whole run's figures, and p99, are
// printed as informational lines either way.
func (r *result) speedMetrics(lat []float64, starts []time.Duration, end time.Duration, window int) {
	lo, hi, took, windows := 0, len(lat), end, 1
	if window > 0 && len(lat) >= window {
		took, windows = -1, 0
		for a := 0; a+window <= len(lat); a += window {
			stop := end
			if a+window < len(lat) {
				stop = starts[a+window]
			}
			if d := stop - starts[a]; took < 0 || d < took {
				lo, hi, took = a, a+window, d
			}
			windows++
		}
	}
	win := lat[lo:hi]
	r.Metrics["throughput_per_s"] = float64(len(win)) / took.Seconds()
	r.Metrics["latency_ms_p50"] = quantile(win, 0.50)
	r.Metrics["latency_ms_p95"] = quantile(win, 0.95)
	r.info("window_ops", float64(len(win)), "count")
	r.info("window_samples_beyond_p95", math.Floor(0.05*float64(len(win))), "count")
	r.info("windows", float64(windows), "count")
	r.info("run.throughput_per_s", float64(len(lat))/end.Seconds(), "1/s")
	r.info("run.latency_ms_p50", quantile(lat, 0.50), "ms")
	r.info("run.latency_ms_p95", quantile(lat, 0.95), "ms")
	r.info("run.latency_ms_p99", quantile(lat, 0.99), "ms")
	r.info("run.latency_samples", float64(len(lat)), "count")
	r.info("run.latency_samples_beyond_p99", math.Floor(0.01*float64(len(lat))), "count")
}

// setupMetric is the median of the repeated set-ups.
func (r *result) setupMetric(setups []float64) {
	r.Metrics["setup_s"] = median(setups)
	r.Samples["setup_s"] = setups
}

// vmHWM reads a process's peak resident set size, in MB, from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
