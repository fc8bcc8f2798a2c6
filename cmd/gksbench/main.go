// Command gksbench regenerates the tables and figures of the paper's
// evaluation (Agarwal et al., EDBT 2016, §7) over the synthetic dataset
// analogs. Each experiment prints the same rows/series the paper reports,
// alongside the paper's numbers where applicable.
//
// Usage:
//
//	gksbench [-scale N] [-exp name] [-json-dir DIR]
//
// Experiments: table1, table4, table5, table7, table8, fig8, fig9, fig10,
// fig8s, refine, feedback, hybrid, naive, schema, meaning, fslca,
// recursive, shard, query, ingest, replica, segment, dag, or "all"
// (default).
//
// With -json-dir every experiment additionally writes its typed rows as
// BENCH_<name>.json into the directory — a machine-readable record of the
// run for regression tracking, alongside the human-readable tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	scale := flag.Int("scale", 1, "dataset scale factor")
	exp := flag.String("exp", "all", "experiment to run (comma separated), or 'all'")
	jsonDir := flag.String("json-dir", "", "also write each experiment's rows as BENCH_<name>.json into this directory")
	flag.Parse()

	wanted := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		wanted[strings.TrimSpace(e)] = true
	}
	all := wanted["all"]
	run := func(name string) bool { return all || wanted[name] }

	s := experiments.NewSuite(*scale)
	out := os.Stdout
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "gksbench: %s: %v\n", name, err)
		os.Exit(1)
	}
	// emit records an experiment's typed result as BENCH_<name>.json.
	emit := func(name string, v any) {
		if *jsonDir == "" {
			return
		}
		data, err := json.MarshalIndent(map[string]any{
			"experiment": name,
			"scale":      *scale,
			"result":     v,
		}, "", "  ")
		if err != nil {
			fail(name, err)
		}
		path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fail(name, err)
		}
	}

	if run("table1") {
		rows, err := experiments.Table1()
		if err != nil {
			fail("table1", err)
		}
		fmt.Fprintln(out, "== Table 1: GKS vs ELCA vs SLCA on the Figure 1 tree ==")
		emit("table1", rows)
		experiments.PrintTable1(out, rows)
		fmt.Fprintln(out)
	}
	if run("table4") {
		rows, err := s.Table4()
		if err != nil {
			fail("table4", err)
		}
		fmt.Fprintln(out, "== Table 4: index size and preparation time ==")
		emit("table4", rows)
		experiments.PrintTable4(out, rows)
		fmt.Fprintln(out)
	}
	if run("table5") {
		rows, err := s.Table5()
		if err != nil {
			fail("table5", err)
		}
		fmt.Fprintln(out, "== Table 5: distribution of XML elements over node categories ==")
		emit("table5", rows)
		experiments.PrintTable5(out, rows)
		fmt.Fprintln(out)
	}
	if run("fig8") {
		points, err := s.Figure8()
		if err != nil {
			fail("fig8", err)
		}
		emit("fig8", points)
		experiments.PrintRTPoints(out, "== Figure 8: response time vs merged list size (n=8) ==", points)
		fmt.Fprintln(out)
	}
	if run("fig8s") {
		points, err := s.Figure8Sampled(8)
		if err != nil {
			fail("fig8s", err)
		}
		fmt.Fprintln(out, "== Figure 8 (sampled workload) ==")
		emit("fig8s", points)
		experiments.PrintFigure8Sampled(out, points)
		fmt.Fprintln(out)
	}
	if run("fig9") {
		points, err := s.Figure9()
		if err != nil {
			fail("fig9", err)
		}
		emit("fig9", points)
		experiments.PrintRTPoints(out, "== Figure 9: response time vs keywords in query (n) ==", points)
		fmt.Fprintln(out)
	}
	if run("fig10") {
		points, err := s.Figure10()
		if err != nil {
			fail("fig10", err)
		}
		fmt.Fprintln(out, "== Figure 10: scalability over replicated datasets ==")
		emit("fig10", points)
		experiments.PrintFigure10(out, points)
		fmt.Fprintln(out)
	}
	if run("table7") {
		rows, err := s.Table7()
		if err != nil {
			fail("table7", err)
		}
		fmt.Fprintln(out, "== Table 7: comparison with SLCA and rank score ==")
		emit("table7", rows)
		experiments.PrintTable7(out, rows)
		fmt.Fprintln(out)
	}
	if run("table8") {
		rows, err := s.Table8()
		if err != nil {
			fail("table8", err)
		}
		fmt.Fprintln(out, "== Table 8: DI discovered for different queries ==")
		emit("table8", rows)
		experiments.PrintTable8(out, rows)
		fmt.Fprintln(out)
	}
	if run("refine") {
		r, err := s.Refinement()
		if err != nil {
			fail("refine", err)
		}
		fmt.Fprintln(out, "== Section 7.4: DI-driven query refinement ==")
		emit("refine", r)
		experiments.PrintRefinement(out, r)
		fmt.Fprintln(out)
	}
	if run("feedback") {
		rows, err := s.Feedback()
		if err != nil {
			fail("feedback", err)
		}
		fmt.Fprintln(out, "== Section 7.5: simulated crowd feedback (GKS vs SLCA) ==")
		emit("feedback", rows)
		experiments.PrintFeedback(out, rows)
		fmt.Fprintln(out)
	}
	if run("hybrid") {
		r, err := s.Hybrid()
		if err != nil {
			fail("hybrid", err)
		}
		fmt.Fprintln(out, "== Section 7.6: hybrid queries over merged repositories ==")
		emit("hybrid", r)
		experiments.PrintHybrid(out, r)
		fmt.Fprintln(out)
	}
	if run("naive") {
		rows, err := s.NaiveAblation()
		if err != nil {
			fail("naive", err)
		}
		fmt.Fprintln(out, "== Lemma 3 ablation ==")
		emit("naive", rows)
		experiments.PrintNaiveAblation(out, rows)
		fmt.Fprintln(out)
	}
	if run("schema") {
		rows, err := s.SchemaAblation()
		if err != nil {
			fail("schema", err)
		}
		fmt.Fprintln(out, "== Schema-aware categorization ablation (§2.2 future work) ==")
		emit("schema", rows)
		experiments.PrintSchemaAblation(out, rows)
		fmt.Fprintln(out)
	}
	if run("meaning") {
		rows, err := s.Meaningfulness()
		if err != nil {
			fail("meaning", err)
		}
		fmt.Fprintln(out, "== Meaningfulness: precision/recall vs SLCA (§1.2) ==")
		emit("meaning", rows)
		experiments.PrintMeaningfulness(out, rows)
		fmt.Fprintln(out)
	}
	if run("recursive") {
		rows, err := s.RecursiveDI(3)
		if err != nil {
			fail("recursive", err)
		}
		fmt.Fprintln(out, "== Recursive DI rounds (§2.3) ==")
		emit("recursive", rows)
		experiments.PrintRecursiveDI(out, rows)
		fmt.Fprintln(out)
	}
	if run("fslca") {
		rows, err := s.FSLCA()
		if err != nil {
			fail("fslca", err)
		}
		fmt.Fprintln(out, "== FSLCA (simplified MESSIAH) comparison (§7.3) ==")
		emit("fslca", rows)
		experiments.PrintFSLCA(out, rows)
		fmt.Fprintln(out)
	}
	if run("shard") {
		r, err := experiments.ShardBench(*scale, []int{2, 4, 8}, 5)
		if err != nil {
			fail("shard", err)
		}
		fmt.Fprintln(out, "== Sharded index: parallel build and scatter-gather search ==")
		emit("shard", r)
		experiments.PrintShardBench(out, r)
		fmt.Fprintln(out)
	}
	if run("ingest") {
		r, err := experiments.IngestBench(*scale, []int{1, 4, 16}, 48)
		if err != nil {
			fail("ingest", err)
		}
		fmt.Fprintln(out, "== Live ingestion: snapshot-per-mutation vs WAL group commit ==")
		emit("ingest", r)
		experiments.PrintIngestBench(out, r)
		fmt.Fprintln(out)
	}
	if run("query") {
		r, err := s.QueryBench(5)
		if err != nil {
			fail("query", err)
		}
		fmt.Fprintln(out, "== Query hot path: seed pipeline vs loser-tree merge + query arena ==")
		emit("query", r)
		experiments.PrintQueryBench(out, r)
		fmt.Fprintln(out)
	}
	if run("replica") {
		r, err := experiments.ReplicaBench(*scale, []int{1, 2, 4}, 16, 4000)
		if err != nil {
			fail("replica", err)
		}
		fmt.Fprintln(out, "== Replicated serving: read scale-out across WAL-shipped replicas ==")
		emit("replica", r)
		experiments.PrintReplicaBench(out, r)
		fmt.Fprintln(out)
	}
	if run("segment") {
		r, err := experiments.SegmentBench(*scale, 0)
		if err != nil {
			fail("segment", err)
		}
		fmt.Fprintln(out, "== Segment serving: GKS4 block-compressed segments vs GKS3 in-memory snapshots ==")
		emit("segment", r)
		experiments.PrintSegmentBench(out, r)
		fmt.Fprintln(out)
	}
	if run("dag") {
		r, err := experiments.DAGBench(*scale)
		if err != nil {
			fail("dag", err)
		}
		fmt.Fprintln(out, "== DAG-compressed node table across duplicate-subtree fractions ==")
		emit("dag", r)
		experiments.PrintDAGBench(out, r)
		fmt.Fprintln(out)
	}
}
