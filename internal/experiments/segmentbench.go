package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	gks "repro"
	"repro/internal/datagen"
)

// Segment bench: the memory/boot story of the GKS4 block-compressed
// segment format. One corpus is persisted twice — as a GKS3 in-memory
// snapshot and as a GKS4 segment — and each file is booted and queried
// the way gksd serves it. Measured per format: file size, boot (load)
// time, resident heap attributable to the loaded system, and cold/warm
// query latency. GKS4 boots by reading only the meta section + footer
// and fetches posting blocks lazily through a bounded cache, so its boot
// time and resident bytes should sit far below GKS3's, at the price of
// block fetches on cold queries.
//
// Honesty note: resident bytes are heap deltas across forced GCs in one
// process, so they carry allocator granularity noise; the OS page cache
// (which serves the GKS4 preads) is not charged to either side. Treat
// the ratio, not the absolute bytes, as the result.

// SegmentRow is one physical format's measurements.
type SegmentRow struct {
	// Format is "gks3" or "gks4".
	Format string
	// FileBytes is the on-disk snapshot size.
	FileBytes int64
	// BootTime is the time to load the file into a serving system.
	BootTime time.Duration
	// ResidentBytes is the heap growth retained after loading (forced-GC
	// delta): the memory the serving process pays just to hold the index.
	ResidentBytes int64
	// ColdQueryAvg is the mean latency of the first pass over the query
	// set right after boot (GKS4 pays its block fetches here).
	ColdQueryAvg time.Duration
	// WarmQueryAvg is the mean latency over subsequent passes, when the
	// block cache holds the working set.
	WarmQueryAvg time.Duration
	// BlockReads counts posting blocks fetched from disk (0 for gks3).
	BlockReads int64
	// PostingResidentBytes is the memory devoted to posting data after the
	// query passes: for gks3 the decoded posting payload (keyword bytes +
	// 4 bytes per entry — a floor, headers excluded), which grows linearly
	// with the corpus; for gks4 the block cache's resident bytes, which the
	// cache capacity bounds regardless of corpus size.
	PostingResidentBytes int64
	// NodeTableBytes is the exact footprint of the node table's backing
	// storage (index.NodeTableBytes — computed, not sampled): the packed
	// DAG-compressed arrays, in both formats.
	NodeTableBytes int64
	// OtherResidentBytes is ResidentBytes minus the node-table and
	// posting-resident shares — label/doc tables, directories, allocator
	// slack. Floored at zero: the three addends come from different
	// measurement methods, so small negatives are noise.
	OtherResidentBytes int64
}

// SegmentBenchResult aggregates the experiment for reporting and the
// BENCH_segment.json artifact.
type SegmentBenchResult struct {
	// Documents / DistinctKeywords / PostingEntries describe the corpus.
	Documents        int
	DistinctKeywords int
	PostingEntries   int
	// Queries is the size of the query set; each pass runs all of them.
	Queries int
	// CacheBytes is the GKS4 block-cache capacity used for serving.
	CacheBytes int64
	Rows       []SegmentRow
	// BootSpeedup is gks3 boot time / gks4 boot time.
	BootSpeedup float64
	// ResidentRatio is gks4 resident bytes / gks3 resident bytes — the
	// whole-process memory number (smaller is better). Both formats keep
	// the node table resident (the engine walks it directly), and on this
	// corpus shape the node table — not the postings — dominates the heap,
	// so this ratio is bounded well above zero by design; PostingRatio
	// isolates the part the format actually makes lazy.
	ResidentRatio float64
	// PostingRatio is gks4 posting-resident bytes / gks3 posting payload
	// bytes: the bounded-vs-unbounded comparison. GKS3's term grows
	// linearly with the corpus; GKS4's is capped at CacheBytes forever.
	PostingRatio float64
	// Mode documents the measurement's scope.
	Mode string
}

// segmentBenchQueries derives a deterministic query set from the corpus
// vocabulary: mixed single- and multi-keyword queries spread across the
// frequency spectrum, so both dense and sparse posting blocks are hit.
func segmentBenchQueries(sys *gks.System, n int) []string {
	kws := make([]string, 0, 1024)
	for _, kf := range sys.TopKeywords(1 << 20) {
		kws = append(kws, kf.Keyword)
	}
	sort.Strings(kws)
	rng := rand.New(rand.NewSource(17))
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
	return qs
}

// heapResident returns the live heap after a double forced GC — the
// steadiest single-process proxy for "memory this system retains".
func heapResident() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// measureSegmentFormat boots path, runs the query passes and returns the
// row. The loaded system is released before returning so the next format
// starts from the same baseline.
func measureSegmentFormat(format, path string, queries []string, cacheBytes int64) (SegmentRow, error) {
	row := SegmentRow{Format: format}
	fi, err := os.Stat(path)
	if err != nil {
		return row, err
	}
	row.FileBytes = fi.Size()

	// Boot time is the minimum over several load/close cycles: single
	// boots swing tens of milliseconds with GC and scheduler noise, and
	// the minimum is the steadiest estimator of the real decode cost (the
	// OS page cache is warm for both formats after the first cycle). The
	// last boot is kept for the resident and query measurements.
	const bootPasses = 5
	var sys *gks.System
	before := heapResident()
	for i := 0; i < bootPasses; i++ {
		start := time.Now()
		s, err := gks.LoadIndexFileOpts(path, gks.SegmentOptions{CacheBytes: cacheBytes})
		if err != nil {
			return row, err
		}
		if d := time.Since(start); i == 0 || d < row.BootTime {
			row.BootTime = d
		}
		if i < bootPasses-1 {
			if err := s.CloseIndex(); err != nil {
				return row, err
			}
			continue
		}
		sys = s
	}
	row.ResidentBytes = heapResident() - before
	if row.ResidentBytes < 0 {
		row.ResidentBytes = 0
	}

	pass := func() (time.Duration, error) {
		start := time.Now()
		for _, q := range queries {
			if _, err := sys.Search(q, 1); err != nil {
				return 0, fmt.Errorf("%s: search %q: %w", format, q, err)
			}
		}
		return time.Since(start), nil
	}
	cold, err := pass()
	if err != nil {
		return row, err
	}
	row.ColdQueryAvg = cold / time.Duration(len(queries))
	const warmPasses = 3
	var warm time.Duration
	for i := 0; i < warmPasses; i++ {
		d, err := pass()
		if err != nil {
			return row, err
		}
		warm += d
	}
	row.WarmQueryAvg = warm / time.Duration(warmPasses*len(queries))
	if seg := sys.Segment(); seg != nil {
		row.BlockReads = seg.BlockReads()
		row.PostingResidentBytes = seg.Cache().Bytes()
	} else {
		for _, kf := range sys.TopKeywords(1 << 30) {
			row.PostingResidentBytes += int64(len(kf.Keyword)) + 4*int64(kf.Count)
		}
	}
	row.NodeTableBytes = sys.NodeTableBytes()
	if row.OtherResidentBytes = row.ResidentBytes - row.NodeTableBytes - row.PostingResidentBytes; row.OtherResidentBytes < 0 {
		row.OtherResidentBytes = 0
	}
	if err := sys.CloseIndex(); err != nil {
		return row, err
	}
	runtime.KeepAlive(sys)
	return row, nil
}

// SegmentBench runs the GKS4-vs-GKS3 serving comparison at the given
// corpus scale with the given block-cache capacity (0 uses 4 MiB).
func SegmentBench(scale int, cacheBytes int64) (*SegmentBenchResult, error) {
	if cacheBytes <= 0 {
		cacheBytes = 4 << 20
	}
	docs := []*gks.Document{
		datagen.SwissProt(datagen.Config{Seed: 1, Scale: scale}),
		datagen.Mondial(datagen.Config{Seed: 2, Scale: scale}),
		datagen.NASA(datagen.Config{Seed: 3, Scale: scale}),
	}
	sys, err := gks.IndexDocuments(docs...)
	if err != nil {
		return nil, err
	}
	st := sys.Stats()
	queries := segmentBenchQueries(sys, 40)

	dir, err := os.MkdirTemp("", "gks-segmentbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	g3 := filepath.Join(dir, "corpus.gksidx")
	g4 := filepath.Join(dir, "corpus.gks4")
	if err := sys.SaveIndexFile(g3); err != nil {
		return nil, err
	}
	if err := sys.SaveSegmentFile(g4); err != nil {
		return nil, err
	}
	// Release the build-time system so it doesn't pollute the resident
	// measurements of the loads below.
	sys = nil
	docs = nil

	res := &SegmentBenchResult{
		Documents:        st.Documents,
		DistinctKeywords: st.DistinctKeywords,
		PostingEntries:   st.PostingEntries,
		Queries:          len(queries),
		CacheBytes:       cacheBytes,
		Mode: "single process; resident bytes are forced-GC heap deltas; " +
			"GKS4 preads hit the OS page cache, which is not charged to either format. " +
			"Both formats decode the packed DAG-compressed node table eagerly (the engine " +
			"indexes it directly; node tbl column, computed exactly via index.NodeTableBytes). " +
			"The posting-resident column is the bounded-vs-unbounded story: gks3 " +
			"posting memory grows with the corpus, gks4's is capped at the " +
			"block-cache capacity; 'other' is the remainder (label/doc tables, " +
			"directories, allocator slack)",
	}
	r3, err := measureSegmentFormat("gks3", g3, queries, cacheBytes)
	if err != nil {
		return nil, err
	}
	r4, err := measureSegmentFormat("gks4", g4, queries, cacheBytes)
	if err != nil {
		return nil, err
	}
	res.Rows = []SegmentRow{r3, r4}
	if r4.BootTime > 0 {
		res.BootSpeedup = float64(r3.BootTime) / float64(r4.BootTime)
	}
	if r3.ResidentBytes > 0 {
		res.ResidentRatio = float64(r4.ResidentBytes) / float64(r3.ResidentBytes)
	}
	if r3.PostingResidentBytes > 0 {
		res.PostingRatio = float64(r4.PostingResidentBytes) / float64(r3.PostingResidentBytes)
	}
	return res, nil
}

// PrintSegmentBench renders the comparison as a table.
func PrintSegmentBench(w io.Writer, r *SegmentBenchResult) {
	fmt.Fprintf(w, "corpus: %d document(s), %d distinct keywords, %d posting entries; %d queries/pass; gks4 block cache %d MiB\n",
		r.Documents, r.DistinctKeywords, r.PostingEntries, r.Queries, r.CacheBytes>>20)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "format\tfile\tboot\tresident\tnode tbl\tposting res.\tother\tcold q\twarm q\tblock reads")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.1f MiB\t%v\t%.1f MiB\t%.1f MiB\t%.1f MiB\t%.1f MiB\t%v\t%v\t%d\n",
			row.Format, float64(row.FileBytes)/(1<<20),
			row.BootTime.Round(time.Microsecond),
			float64(row.ResidentBytes)/(1<<20),
			float64(row.NodeTableBytes)/(1<<20),
			float64(row.PostingResidentBytes)/(1<<20),
			float64(row.OtherResidentBytes)/(1<<20),
			row.ColdQueryAvg.Round(time.Microsecond),
			row.WarmQueryAvg.Round(time.Microsecond),
			row.BlockReads)
	}
	tw.Flush()
	fmt.Fprintf(w, "boot speedup (gks3/gks4): %.1fx; resident ratio (gks4/gks3): %.2f; posting-resident ratio: %.2f\n",
		r.BootSpeedup, r.ResidentRatio, r.PostingRatio)
	fmt.Fprintf(w, "mode: %s\n", r.Mode)
}
