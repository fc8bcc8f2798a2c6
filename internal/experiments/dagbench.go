package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// DAG bench: the node-table compression story of the packed index. One
// DBLP-shaped corpus is generated at several duplicate-subtree fractions
// (datagen.BibConfig.DupFraction) and indexed once; each row reports the
// exact node-table bytes (index.NodeTableBytes — computed, not sampled),
// shape-table statistics, build time (packing included) and cold/warm
// query latency. A live-ingestion run then appends single documents
// through the delta-maintaining pack and diffs the final state's answers
// against a cold rebuild, so a throughput number can never hide
// divergence.
//
// Honesty note: latency is single-process wall clock (best-of-passes for
// warm), so treat small ratios as noise; the byte columns are exact.

// DAGRow is one duplicate-fraction's measurements.
type DAGRow struct {
	// DupFraction is the fraction of background DBLP entries emitted as
	// exact copies of an earlier entry.
	DupFraction float64
	// Nodes is the element-node count of the corpus.
	Nodes int
	// PackedBytes is the exact node-table footprint; BytesPerNode divides
	// it by Nodes.
	PackedBytes  int64
	BytesPerNode float64
	// SpineNodes, Instances, Shapes, ShapeNodes and Values summarize the
	// packed table (index.PackInfo): SpineNodes+ShapeNodes is the number
	// of structural records actually stored for Nodes elements.
	SpineNodes int
	Instances  int
	Shapes     int
	ShapeNodes int
	Values     int
	// BuildTime is the index build, packing included.
	BuildTime time.Duration
	// Cold is the first-pass mean latency; Warm the best-of-7-passes mean.
	Cold time.Duration
	Warm time.Duration
}

// DAGIngestRow is the live-ingestion measurement: a document stream
// appended one at a time onto a base corpus through the delta-maintaining
// pack.
type DAGIngestRow struct {
	// Docs is the number of documents appended; Nodes the final node count.
	Docs  int
	Nodes int
	// Total is the wall-clock for the whole stream; PerDoc the mean;
	// DocsPerSec the resulting upsert throughput.
	Total      time.Duration
	PerDoc     time.Duration
	DocsPerSec float64
	// PackDebt is the leftover debt ratio (what a repack would reclaim).
	PackDebt float64
}

// DAGBenchResult aggregates the experiment for reporting and the
// BENCH_dag.json artifact.
type DAGBenchResult struct {
	Scale   int
	Queries int
	Rows    []DAGRow
	Ingest  DAGIngestRow
	Mode    string
}

// dagQueries derives a deterministic mixed query set from the index
// vocabulary, spread across the frequency spectrum.
func dagQueries(ix *index.Index, n int) ([]string, error) {
	var kws []string
	err := ix.ForEachKeywordSorted(func(kw string, list []int32) error {
		kws = append(kws, kw)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(23))
	qs := make([]string, 0, n)
	for i := 0; i < n && len(kws) > 0; i++ {
		k := 1 + rng.Intn(3)
		q := ""
		for j := 0; j < k; j++ {
			if j > 0 {
				q += " "
			}
			q += kws[rng.Intn(len(kws))]
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// diffResponses compares the user-visible surface of two responses.
func diffResponses(q string, a, b *core.Response) error {
	if len(a.Results) != len(b.Results) {
		return fmt.Errorf("dag: query %q: %d results vs %d", q, len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		ra, rb := &a.Results[i], &b.Results[i]
		if ra.Ord != rb.Ord || ra.Rank != rb.Rank || ra.Label != rb.Label ||
			ra.KeywordCount != rb.KeywordCount || ra.ID.String() != rb.ID.String() {
			return fmt.Errorf("dag: query %q: result %d diverges (%s rank %g vs %s rank %g)",
				q, i, ra.ID, ra.Rank, rb.ID, rb.Rank)
		}
	}
	return nil
}

// dagMeasure runs the query passes over one engine. The first pass is the
// cold column; warm is the per-query mean of the best subsequent pass.
func dagMeasure(eng *core.Engine, queries []string, threshold int) (cold, warm time.Duration, responses []*core.Response, err error) {
	pass := func(keep bool) (time.Duration, error) {
		start := time.Now()
		for _, q := range queries {
			resp, err := eng.Search(core.ParseQuery(q), threshold)
			if err != nil {
				return 0, err
			}
			if keep {
				responses = append(responses, resp)
			}
		}
		return time.Since(start), nil
	}
	coldTotal, err := pass(true)
	if err != nil {
		return 0, 0, nil, err
	}
	const warmPasses = 7
	var best time.Duration
	for i := 0; i < warmPasses; i++ {
		d, err := pass(false)
		if err != nil {
			return 0, 0, nil, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	n := time.Duration(len(queries))
	return coldTotal / n, best / n, responses, nil
}

// dagLiveDocs generates the live-upsert stream: small bibliography
// fragments (a handful of entries each), the shape a single ingest API
// call carries, deterministic in the seed.
func dagLiveDocs(n int) []*xmltree.Document {
	docs := make([]*xmltree.Document, n)
	for i := range docs {
		d := datagen.DBLP(datagen.BibConfig{
			Config:  datagen.Config{Seed: int64(1000 + i), Scale: 1},
			Entries: 5,
		})
		d.Name = fmt.Sprintf("live-%d.xml", i)
		docs[i] = d
	}
	return docs
}

// dagIngest measures live-ingestion throughput: the document stream is
// appended one at a time onto the base corpus, then the final state's
// answers are diffed query by query against a cold rebuild of the same
// documents.
func dagIngest(scale int) (DAGIngestRow, error) {
	base := datagen.DBLP(datagen.BibConfig{
		Config:      datagen.Config{Seed: 31, Scale: scale},
		DupFraction: 0.3,
	})
	cur, err := index.Build(datagen.Repo(base), index.DefaultOptions())
	if err != nil {
		return DAGIngestRow{}, fmt.Errorf("dag ingest: indexing base: %w", err)
	}
	nDocs := min(16+4*scale, 96)
	docs := dagLiveDocs(nDocs)

	start := time.Now()
	for _, d := range docs {
		if cur, err = index.AppendAs(cur, d, cur.NextDocID(), index.DefaultOptions()); err != nil {
			return DAGIngestRow{}, fmt.Errorf("dag ingest: %w", err)
		}
	}
	total := time.Since(start)
	row := DAGIngestRow{
		Docs:       nDocs,
		Nodes:      cur.NodeCount(),
		Total:      total,
		PerDoc:     total / time.Duration(nDocs),
		DocsPerSec: float64(nDocs) / total.Seconds(),
		PackDebt:   cur.PackDebt(),
	}

	// AppendAs numbered the documents in place, so the cold rebuild sees
	// the same Dewey IDs.
	cold, err := index.Build(&xmltree.Repository{Docs: append([]*xmltree.Document{base}, docs...)}, index.DefaultOptions())
	if err != nil {
		return DAGIngestRow{}, fmt.Errorf("dag ingest: cold rebuild: %w", err)
	}
	queries, err := dagQueries(cold, 30)
	if err != nil {
		return DAGIngestRow{}, err
	}
	liveEng, coldEng := core.NewEngine(cur), core.NewEngine(cold)
	for _, q := range queries {
		want, err := coldEng.Search(core.ParseQuery(q), 2)
		if err != nil {
			return DAGIngestRow{}, err
		}
		got, err := liveEng.Search(core.ParseQuery(q), 2)
		if err != nil {
			return DAGIngestRow{}, err
		}
		if err := diffResponses(q, want, got); err != nil {
			return DAGIngestRow{}, fmt.Errorf("dag ingest: appended vs cold rebuild: %w", err)
		}
	}
	return row, nil
}

// DAGBench measures the packed node table at the given corpus scale
// across a sweep of duplicate-subtree fractions.
func DAGBench(scale int) (*DAGBenchResult, error) {
	res := &DAGBenchResult{
		Scale: scale,
		Mode: "single process; byte columns are exact (index.NodeTableBytes), " +
			"latency is wall clock (warm = best of 7 passes); the appended " +
			"index's responses are diffed against a cold rebuild",
	}
	for _, dup := range []float64{0, 0.3, 0.6, 0.9} {
		repo := datagen.Repo(datagen.DBLP(datagen.BibConfig{
			Config:      datagen.Config{Seed: 29, Scale: scale},
			DupFraction: dup,
		}))
		start := time.Now()
		ix, err := index.Build(repo, index.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("dag: indexing dup=%.1f: %w", dup, err)
		}
		buildTime := time.Since(start)
		info := ix.PackedInfo()

		queries, err := dagQueries(ix, 30)
		if err != nil {
			return nil, err
		}
		cold, warm, _, err := dagMeasure(core.NewEngine(ix), queries, 2)
		if err != nil {
			return nil, err
		}
		row := DAGRow{
			DupFraction: dup,
			Nodes:       ix.NodeCount(),
			PackedBytes: ix.NodeTableBytes(),
			SpineNodes:  info.SpineNodes,
			Instances:   info.Instances,
			Shapes:      info.Shapes,
			ShapeNodes:  info.ShapeNodes,
			Values:      info.Values,
			BuildTime:   buildTime,
			Cold:        cold,
			Warm:        warm,
		}
		row.BytesPerNode = float64(row.PackedBytes) / float64(row.Nodes)
		res.Rows = append(res.Rows, row)
		res.Queries = len(queries)
	}
	ingest, err := dagIngest(scale)
	if err != nil {
		return nil, err
	}
	res.Ingest = ingest
	return res, nil
}

// PrintDAGBench renders the measurements as a table.
func PrintDAGBench(w io.Writer, r *DAGBenchResult) {
	fmt.Fprintf(w, "DBLP corpus at scale %d; %d queries/pass; packed (DAG-compressed) node table\n", r.Scale, r.Queries)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dup\tnodes\tntbl\tB/node\tshapes\tinstances\tspine\tbuild\tcold\twarm")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%.1f\t%d\t%.2f MiB\t%.1f\t%d\t%d\t%d\t%v\t%v\t%v\n",
			row.DupFraction, row.Nodes, float64(row.PackedBytes)/(1<<20), row.BytesPerNode,
			row.Shapes, row.Instances, row.SpineNodes,
			row.BuildTime.Round(time.Millisecond),
			row.Cold.Round(time.Microsecond), row.Warm.Round(time.Microsecond))
	}
	tw.Flush()
	in := r.Ingest
	fmt.Fprintf(w, "\nlive ingestion: %d single-document upserts onto the dup=0.3 base: %.1f docs/s, %v per doc, %v total, %d final nodes, pack debt %.3f\n",
		in.Docs, in.DocsPerSec, in.PerDoc.Round(time.Microsecond), in.Total.Round(time.Millisecond), in.Nodes, in.PackDebt)
	fmt.Fprintf(w, "mode: %s\n", r.Mode)
}
