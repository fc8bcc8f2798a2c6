package experiments

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/core"
)

// Query bench: end-to-end hot-path comparison between the frozen seed
// pipeline (Engine.SearchBaseline — container/heap merge, map-backed
// window scan, per-candidate allocations) and the current pipeline
// (loser-tree merge, pooled query arena, memoized LCP, rank stage over
// compact records with one path buffer per response), plus the current
// pipeline's top-10 search. Both full-search paths
// produce byte-identical responses (the core differential tests are the
// oracle); this experiment records how much cheaper the current one is
// on the paper workloads, with the per-stage latency split the engine
// now reports.

// QueryStageMicros is the per-stage wall-clock split of the optimized
// path, summed over a workload's queries (best run per query).
type QueryStageMicros struct {
	Merge, Windows, Lift, Filter, Rank float64
}

// QueryBenchRow is one dataset workload's measurements.
type QueryBenchRow struct {
	// Dataset names the workload corpus; Threshold is the s threshold the
	// queries run at; Queries is the workload size.
	Dataset   string
	Threshold int
	Queries   int
	// SeedTime and OptTime are the summed best-of-reps wall times over
	// the workload for the seed and optimized pipelines.
	SeedTime time.Duration
	OptTime  time.Duration
	// TopKTime is the summed best-of-reps wall time of the optimized
	// SearchTopK with k=10 — the page a /search?top=10 request returns.
	TopKTime time.Duration
	// Speedup is SeedTime / OptTime.
	Speedup float64
	// SeedAllocs and OptAllocs are steady-state heap allocations per
	// query for each pipeline.
	SeedAllocs float64
	OptAllocs  float64
	// QueriesPerSec is the optimized pipeline's throughput implied by
	// OptTime.
	QueriesPerSec float64
	// Stages is the optimized path's per-stage cost over the workload.
	Stages QueryStageMicros
}

// QueryBenchResult aggregates the experiment for reporting and the
// BENCH_query.json artifact.
type QueryBenchResult struct {
	Rows []QueryBenchRow
	// TotalSeed and TotalOptimized sum the workload times across rows.
	TotalSeed      time.Duration
	TotalOptimized time.Duration
	// Speedup is TotalSeed / TotalOptimized.
	Speedup float64
	// AllocReduction is 1 − (optimized allocs / seed allocs), weighted by
	// workload size: 0.5 means half the allocations per query.
	AllocReduction float64
}

// queryWorkload is one dataset's fixed query set.
type queryWorkload struct {
	dataset   string
	threshold int
	queries   []core.Query
}

// queryBenchWorkloads builds the fixed workloads: the Table 6
// bibliographic queries at s=1, plus the Figure 8 pattern of n=8 keyword
// windows (shifts 0,2,4,6,8 over the 16 mixed-selectivity keywords) at
// s=2 on the scientific datasets, which stress the k-way merge hardest.
func queryBenchWorkloads() []queryWorkload {
	var ws []queryWorkload
	for _, ds := range []string{"sigmod", "dblp"} {
		var qs []core.Query
		for _, pq := range paperQueries() {
			if pq.Dataset == ds {
				qs = append(qs, core.NewQuery(pq.Terms...))
			}
		}
		ws = append(ws, queryWorkload{dataset: ds, threshold: 1, queries: qs})
	}
	for _, ds := range []string{"nasa", "swissprot"} {
		kws := figureKeywords[ds]
		var qs []core.Query
		for shift := 0; shift+8 <= len(kws); shift += 2 {
			qs = append(qs, core.NewQuery(kws[shift:shift+8]...))
		}
		ws = append(ws, queryWorkload{dataset: ds, threshold: 2, queries: qs})
	}
	return ws
}

// queryBenchTopK is the page size of the top-k timing.
const queryBenchTopK = 10

// bestOf runs run reps times and returns its fastest wall time.
func bestOf(reps int, run func() error) (time.Duration, error) {
	var best time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		if el := time.Since(start); r == 0 || el < best {
			best = el
		}
	}
	return best, nil
}

// allocsPerRun reports the mean heap allocations of one run() call in
// steady state — the same measurement testing.AllocsPerRun makes,
// inlined here so the gksbench binary does not link package testing.
func allocsPerRun(run func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run() // warm caches and pools outside the measured region
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 3
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / rounds
}

// QueryBench measures the seed vs optimized search pipelines on the
// paper workloads. reps > 1 keeps the fastest run of each query.
func (s *Suite) QueryBench(reps int) (*QueryBenchResult, error) {
	if reps < 1 {
		reps = 1
	}
	res := &QueryBenchResult{}
	var seedAllocsSum, optAllocsSum float64
	var totalQueries int
	for _, w := range queryBenchWorkloads() {
		d, err := s.Dataset(w.dataset)
		if err != nil {
			return nil, err
		}
		eng := d.Engine
		row := QueryBenchRow{
			Dataset:   w.dataset,
			Threshold: w.threshold,
			Queries:   len(w.queries),
		}

		// Warm both paths so pool growth and lazily built tables land
		// outside the timed regions, then measure from a collected heap
		// (same methodology as the shard bench: without the GC the
		// previous region's garbage is collected inside this one).
		for _, q := range w.queries {
			if _, err := eng.SearchBaseline(q, w.threshold); err != nil {
				return nil, fmt.Errorf("experiments: %s seed warmup: %w", w.dataset, err)
			}
			if _, err := eng.Search(q, w.threshold); err != nil {
				return nil, fmt.Errorf("experiments: %s warmup: %w", w.dataset, err)
			}
		}

		runtime.GC()
		for _, q := range w.queries {
			best, err := bestOf(reps, func() error {
				_, err := eng.SearchBaseline(q, w.threshold)
				return err
			})
			if err != nil {
				return nil, err
			}
			row.SeedTime += best
		}

		runtime.GC()
		for _, q := range w.queries {
			el, resp, err := timeSearch(eng, q, w.threshold, reps)
			if err != nil {
				return nil, err
			}
			row.OptTime += el
			row.Stages.Merge += float64(resp.Stages.Merge.Microseconds())
			row.Stages.Windows += float64(resp.Stages.Windows.Microseconds())
			row.Stages.Lift += float64(resp.Stages.Lift.Microseconds())
			row.Stages.Filter += float64(resp.Stages.Filter.Microseconds())
			row.Stages.Rank += float64(resp.Stages.Rank.Microseconds())
		}

		runtime.GC()
		for _, q := range w.queries {
			best, err := bestOf(reps, func() error {
				_, err := eng.SearchTopK(q, w.threshold, queryBenchTopK)
				return err
			})
			if err != nil {
				return nil, err
			}
			row.TopKTime += best
		}

		row.SeedAllocs = allocsPerRun(func() {
			for _, q := range w.queries {
				eng.SearchBaseline(q, w.threshold) //nolint:errcheck — measured above
			}
		}) / float64(len(w.queries))
		row.OptAllocs = allocsPerRun(func() {
			for _, q := range w.queries {
				eng.Search(q, w.threshold) //nolint:errcheck — measured above
			}
		}) / float64(len(w.queries))

		if row.OptTime > 0 {
			row.Speedup = float64(row.SeedTime) / float64(row.OptTime)
			row.QueriesPerSec = float64(row.Queries) / row.OptTime.Seconds()
		}
		res.TotalSeed += row.SeedTime
		res.TotalOptimized += row.OptTime
		seedAllocsSum += row.SeedAllocs * float64(row.Queries)
		optAllocsSum += row.OptAllocs * float64(row.Queries)
		totalQueries += row.Queries
		res.Rows = append(res.Rows, row)
	}
	if res.TotalOptimized > 0 {
		res.Speedup = float64(res.TotalSeed) / float64(res.TotalOptimized)
	}
	if seedAllocsSum > 0 && totalQueries > 0 {
		res.AllocReduction = 1 - optAllocsSum/seedAllocsSum
	}
	return res, nil
}

// PrintQueryBench renders the experiment for the gksbench text report.
func PrintQueryBench(w io.Writer, r *QueryBenchResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\ts\tqueries\tseed\toptimized\tspeedup\ttop-10\tallocs/q seed\tallocs/q opt\tqueries/s")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%.2fx\t%s\t%.0f\t%.0f\t%.0f\n",
			row.Dataset, row.Threshold, row.Queries,
			row.SeedTime.Round(time.Microsecond), row.OptTime.Round(time.Microsecond),
			row.Speedup, row.TopKTime.Round(time.Microsecond),
			row.SeedAllocs, row.OptAllocs, row.QueriesPerSec)
	}
	tw.Flush()
	fmt.Fprintf(w, "total: seed %s, optimized %s — %.2fx faster, %.0f%% fewer allocations\n",
		r.TotalSeed.Round(time.Microsecond), r.TotalOptimized.Round(time.Microsecond),
		r.Speedup, 100*r.AllocReduction)
	fmt.Fprintln(w, "optimized per-stage cost (µs summed over each workload):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tmerge\twindows\tlift\tfilter\trank")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			row.Dataset, row.Stages.Merge, row.Stages.Windows,
			row.Stages.Lift, row.Stages.Filter, row.Stages.Rank)
	}
	tw.Flush()
}
