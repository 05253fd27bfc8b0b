// Command perfbench is the repository's benchmark: one command that
// drives the testbed through its public API, measures a workload for a
// fixed wall-clock budget, checks every result against reference
// digests, and prints its metrics as one JSON object on the last line
// of standard output.
//
//	perfbench --workload paper-voip --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
// runs the workload once more with spans and a CPU profile and reports
// the per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	record   bool
	outDir   string
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload runs one measurement; it fills the report's metrics, detail
// and failure counts.
type workload func(o *options, rep *report) error

var workloads = map[string]workload{
	"paper-voip":     runPaper,
	"paper-saturate": runPaper,
	"fleet-4cell":    runFleet,
	"service-mix":    runService,
}

func main() {
	o := &options{}
	var trace int
	flag.StringVar(&o.workload, "workload", "paper-voip", "workload: paper-voip, paper-saturate, fleet-4cell or service-mix")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; run seeds are derived from it")
	flag.IntVar(&o.seconds, "seconds", 10, "measured wall-clock seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of a traced run")
	flag.BoolVar(&o.record, "record", false, "write this seed's reference digests and work counts to expected.json")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for profiles and spans")
	flag.Parse()
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, trace %d, seconds %d\n", o.workload, trace, o.seconds)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}

	rep := newReport(o)
	if err := run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	rep.detail["env"] = envStamp(o) // after the run, which may set GOMAXPROCS
	if o.record {
		if err := recordExpected(o, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: record: %v\n", err)
			os.Exit(1)
		}
	}
	rep.finish()

	detail, err := json.Marshal(map[string]any{"perfbench_detail": rep.detail})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(detail))
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.result.Correct {
		os.Exit(1)
	}
}

// report accumulates one invocation's result line and detail record.
type report struct {
	result result
	detail map[string]any
	want   []string // metric names the result line must carry
	errs   []string
	bad    bool // a check outside the timed operations failed
}

func newReport(o *options) *report {
	r := &report{
		result: result{Metrics: map[string]metric{}},
		detail: map[string]any{},
	}
	r.want = endToEnd
	if o.trace {
		r.want = perLayer
	}
	return r
}

// set records one result-line metric.
func (r *report) set(name string, v float64) {
	r.result.Metrics[name] = metric{Value: v, Unit: units[name]}
}

// fail records a failed operation with its reason (the first few
// reasons are kept in the detail record).
func (r *report) fail(format string, args ...any) {
	r.result.Failed++
	r.note(format, args...)
}

// broken records a failed check outside the timed operations (set-up,
// references, the metrics themselves); the run is then not correct.
func (r *report) broken(format string, args ...any) {
	r.bad = true
	r.note(format, args...)
}

// note keeps a problem's description in the detail record.
func (r *report) note(format string, args ...any) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// finish checks the result line is complete and finite and settles
// correctness.
func (r *report) finish() {
	for _, name := range r.want {
		m, ok := r.result.Metrics[name]
		if !ok {
			r.broken("metric not measured: %s", name)
			continue
		}
		if m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300 {
			r.broken("metric not finite: %s", name)
			r.result.Metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	for name := range r.result.Metrics {
		if !slices.Contains(r.want, name) {
			delete(r.result.Metrics, name)
		}
	}
	if r.result.Attempted < 1 {
		r.result.Attempted = 1
		r.result.Failed = max(r.result.Failed, 1)
		r.errs = append(r.errs, "no operation completed")
	}
	r.result.Correct = r.result.Failed == 0 && !r.bad
	r.detail["failed_share"] = float64(r.result.Failed) / float64(r.result.Attempted)
	r.detail["errors"] = r.errs
}

// envStamp records where and on what the numbers were measured.
func envStamp(o *options) map[string]any {
	return map[string]any{
		"workload":       o.workload,
		"seed":           o.seed,
		"seconds":        o.seconds,
		"trace":          o.trace,
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":         commitOf("."),
		"source_sha256":  sourceDigest("."),
		"finished_utc":   time.Now().UTC().Format(time.RFC3339),
		"default_seed":   defaultSeed,
		"held_out_seed":  heldOutSeed,
		"expected_known": expectedFor(o.workload, o.seed) != nil,
	}
}
