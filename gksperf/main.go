// Command gksperf is the repository's benchmark. It drives gksd over
// loopback with an open-loop schedule on one of three workloads, checks
// the answers, and prints every metric by name and unit; the last line of
// its output is one JSON object. See README.md for the workloads, the
// metrics and what each layer metric should move.
//
// Usage, from the root of the repository:
//
//	bash gksperf/run.sh --workload nasa-broad --seed 1 --seconds 20 --trace 0
//
// run.sh builds gks, gksd and this command from the tree into
// .bench_build/ and then runs it. --trace 0 reports the end-to-end
// metrics; --trace 1 adds an in-process traced run and reports the
// per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: nasa-broad, bib-lookup or ingest-mixed")
	seed := flag.Int64("seed", 1, "seed of the op stream")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced in-process run and reports per-layer metrics")
	root := flag.String("root", ".", "root of the checkout holding .bench_build/bin")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "gksperf:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, window time.Duration, traced bool, root string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if window <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	p, err := prepare(w, seed, window, root)
	if err != nil {
		return err
	}
	printStamp(p, root)

	m, e2e, err := untraced(p, !traced)
	if err != nil {
		return err
	}
	printRun("gksd", p, m)
	out := summary{Correct: m.checkErr == nil, Attempted: m.attempted(), Failed: m.failed(), Metrics: e2e}
	if m.checkErr != nil {
		fmt.Println("CHECK FAILED:", m.checkErr)
	}
	if traced {
		tm, layers, err := tracedRun(p)
		if err != nil {
			return err
		}
		printRun("traced", p, tm)
		if tm.checkErr != nil {
			fmt.Println("CHECK FAILED (traced):", tm.checkErr)
		}
		late := lateness(m.window)
		layers["loadgen.late_p50_ms"] = metric{median(append([]float64(nil), late...)), "ms"}
		p99, err := percentile(late, 0.99)
		if err != nil {
			return fmt.Errorf("loadgen.late_p99_ms: %w", err)
		}
		layers["loadgen.late_p99_ms"] = metric{p99, "ms"}
		layers["trace.overhead_ms"] = metric{tm.readP50(p) - m.readP50(p), "ms"}
		out = summary{
			Correct:   out.Correct && tm.checkErr == nil,
			Attempted: out.Attempted + tm.attempted(),
			Failed:    out.Failed + tm.failed(),
			Metrics:   layers,
		}
	}
	printMetrics(out.Metrics)
	for k, v := range out.Metrics {
		// A value can only be infinite when failed requests reach a
		// percentile; report the client timeout, the longest wait a
		// client can observe, and fail the run.
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			out.Metrics[k] = metric{ms(requestTimeout), v.Unit}
			out.Correct = false
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printRun reports per-op-type counts and generator lateness of a run.
func printRun(label string, p *prep, m *measured) {
	for k := opKind(0); k < numKinds; k++ {
		if m.sent[k] > 0 {
			fmt.Printf("%s ops %-8s sent %6d  succeeded %6d  failed %d\n", label, kindNames[k], m.sent[k], m.ok[k], m.sent[k]-m.ok[k])
		}
	}
	for _, e := range m.errs {
		fmt.Printf("%s failure: %s\n", label, e)
	}
	late := lateness(m.window)
	reads := len(latencies(p.st.window, m.window, isRead))
	fmt.Printf("%s window: %d reads (%d beyond p99), generator late p50 %.3f ms, p99 %.3f ms\n",
		label, reads, reads-int(math.Ceil(0.99*float64(reads))), median(late), quantileOrNaN(late, 0.99))
	// Write latency is printed, not reported: see README.md, "Steadiness".
	w := append(latencies(p.st.window, m.window, isWrite), latencies(p.st.writes, m.writes, isWrite)...)
	if len(w) > 0 {
		fmt.Printf("%s writes: %d upserts, latency p50 %.3f ms, p99 %.3f ms (unbounded)\n",
			label, len(w), median(append([]float64(nil), w...)), quantileOrNaN(w, 0.99))
	}
}

func quantileOrNaN(xs []float64, q float64) float64 {
	v, err := percentile(append([]float64(nil), xs...), q)
	if err != nil {
		return math.NaN()
	}
	return v
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// printStamp prints the environment stamp as one JSON line.
func printStamp(p *prep, root string) {
	stamp := envStamp(root)
	stamp["workload"] = p.w.name
	stamp["seed"] = fmt.Sprint(p.seed)
	stamp["window_s"] = fmt.Sprint(p.window.Seconds())
	stamp["op_stream_sha256"] = streamHash(p.st)
	stamp["run_dir"] = p.dir
	b, _ := json.Marshal(stamp) // a map of strings always encodes
	fmt.Println("env", strings.TrimSpace(string(b)))
}
