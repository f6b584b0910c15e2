// Command scanbench is zmapgo's whole-scan benchmark. Each run compiles
// and runs complete scans through the public zmap API (Options.Compile,
// then Scanner.Run) on one named workload, checks every scan's output
// against ground truth, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics of a separate traced run (--trace 1). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 0.031, "unit": "s"}, ...}}
//
// Build and run it from the repository root with
//
//	bash scanbench/run.sh --workload send-null --seed 1 --seconds 10 --trace 0
//
// README.md explains the workloads and every metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // text table only
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scanbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: send-null, reflect-multiport or sim-paced")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		if err == nil {
			err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "scanbench:", err)
		return 2
	}
	in, err := newInputs(w, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "scanbench:", err)
		return 1
	}
	shape := machineShape(in)
	line, _ := json.Marshal(shape)
	fmt.Fprintf(stdout, "# machine %s\n", line)

	r := newRunner(in)
	budget := time.Duration(*seconds * float64(time.Second))
	var metrics []metric
	var all []*scanResult
	if *traceFlag == 0 {
		scans, err := r.measure(budget, 3, nil, shape.RecvWorkers)
		if err != nil {
			fmt.Fprintln(stderr, "scanbench:", err)
			return 1
		}
		all = scans
		metrics = endToEnd(scans)
	} else {
		var traced *tracedRun
		traced, err = r.traced(budget, shape.RecvWorkers)
		if err != nil {
			fmt.Fprintln(stderr, "scanbench:", err)
			return 1
		}
		all = traced.all()
		metrics = traced.perLayer()
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(path, traced.spans); err != nil {
			fmt.Fprintln(stderr, "scanbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans %s (%d kept, %d dropped)\n", path, len(traced.spans.spans()), traced.spans.dropped.Load())
	}

	failed := 0
	for i, s := range all {
		if !s.verdict.ok() {
			failed++
			fmt.Fprintf(stderr, "scanbench: scan %d failed its oracle: %s\n", i+1, strings.Join(s.verdict.problems, "; "))
		}
		if n := s.layers.poolMisses; n != 0 {
			fmt.Fprintf(stderr, "scanbench: scan %d: the reflector allocated %d frames, counted in allocs_per_probe\n", i+1, n)
		}
	}
	fmt.Fprintf(stdout, "# %s seed=%d scans=%d failed=%d missed_frac=%g (expected %d rows per scan)\n",
		w.name, *seed, len(all), failed, missedFrac(all), r.exp.rows)
	for _, m := range metrics {
		fmt.Fprintf(stdout, "  %-30s %16.6f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}

	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: failed == 0, Attempted: len(all), Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err = json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "scanbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs whole scans back to back until budget has elapsed, and
// at least minScans of them.
func (r *runner) measure(budget time.Duration, minScans int, spans *spanLog, recvWorkers int) ([]*scanResult, error) {
	var out []*scanResult
	start := time.Now()
	for len(out) < minScans || time.Since(start) < budget {
		res, err := r.run(spans, recvWorkers)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// endToEnd reduces untraced scans to the end-to-end metrics: the median
// of each over the run's scans. Timings also carry, for the text table,
// the sample count and the worst percentile with at least ten scans
// beyond it.
func endToEnd(scans []*scanResult) []metric {
	timing := func(name, unit string, lowerIsBetter bool, f func(s *scanResult) float64) metric {
		m := metric{name, medianOf(scans, f), unit, ""}
		m.note = tailNote(scans, lowerIsBetter, f)
		return m
	}
	med := func(f func(s *scanResult) float64) float64 { return medianOf(scans, f) }
	return []metric{
		timing("setup_s", "s", true, func(s *scanResult) float64 { return s.setupS }),
		timing("scan_pps", "1/s", false, func(s *scanResult) float64 { return s.scanPPS() }),
		timing("total_s", "s", true, func(s *scanResult) float64 { return s.totalS }),
		timing("cpu_ns_per_probe", "ns", true, func(s *scanResult) float64 { return s.perProbe(s.cpuNs) }),
		{"allocs_per_probe", med(func(s *scanResult) float64 { return s.perProbe(float64(s.mallocs)) }), "count", ""},
		{"bytes_per_probe", med(func(s *scanResult) float64 { return s.perProbe(float64(s.bytes)) }), "B", ""},
		{"peak_heap_mb", med(func(s *scanResult) float64 { return float64(s.peakHeap) / 1e6 }), "MB", ""},
	}
}

// tailNote describes a timing's sample: the scan count and, when at
// least twenty scans ran, the worst percentile that still has ten scans
// beyond it.
func tailNote(scans []*scanResult, lowerIsBetter bool, f func(s *scanResult) float64) string {
	n := len(scans)
	if n < 20 {
		return fmt.Sprintf("median of %d scans", n)
	}
	v := make([]float64, n)
	for i, s := range scans {
		v[i] = f(s)
	}
	sort.Float64s(v)
	pct := 100 * (n - 10) / n
	worst := v[n-11]
	if !lowerIsBetter {
		worst = v[10]
		pct = 100 - pct
	}
	return fmt.Sprintf("median of %d scans; p%d %.6g", n, pct, worst)
}

func medianOf(scans []*scanResult, f func(s *scanResult) float64) float64 {
	if len(scans) == 0 {
		return 0
	}
	v := make([]float64, len(scans))
	for i, s := range scans {
		v[i] = f(s)
	}
	return median(v)
}

func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// shape is the machine and run identity printed with every result, so
// numbers from different boxes can be told apart.
type shape struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Target      string `json:"target"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPU         string `json:"cpu_model"`
	RecvWorkers int    `json:"recv_workers"`
}

func machineShape(in *inputs) shape {
	procs := runtime.GOMAXPROCS(0)
	// Receive workers never outnumber the processors (a power of two, as
	// the engine rounds up otherwise).
	workers := 1
	for workers*2 <= min(in.w.recvWorkers, procs) {
		workers *= 2
	}
	return shape{
		Workload:    in.w.name,
		Seed:        in.seed,
		Target:      in.cidr() + " ports " + in.w.ports,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  procs,
		GoVersion:   runtime.Version(),
		CPU:         cpuModel(),
		RecvWorkers: workers,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, where present.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeSpans writes the traced scans' transport spans as JSON lines.
func writeSpans(path string, log *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range log.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
