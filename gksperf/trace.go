package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	gks "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/wal"
)

// span is one timed call at a layer boundary. Spans of one HTTP request
// share req; a span's parent is the span that caused it (0 for a root).
type span struct {
	Name   string    `json:"name"`
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Req    int64     `json:"req"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Engine searches carry the engine's own stage split and work sizes.
	Query   string             `json:"query,omitempty"`
	Top     int                `json:"top,omitempty"` // rows the request returns
	Stages  *core.StageTimings `json:"stages,omitempty"`
	SL      int                `json:"sl,omitempty"`
	Results int                `json:"results,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
	resps sync.Map // *gks.Response -> *reqTrace, while its request runs
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timeRoot records a root span around fn.
func (t *tracer) timeRoot(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.record(span{Name: name, ID: t.ids.Add(1), Start: start, End: time.Now()})
	return err
}

type reqKey struct{}

// reqTrace is the request a call belongs to.
type reqTrace struct {
	id  int64 // request id, also its root span's id
	top int
	// resps are the responses its searches returned. The handler may run
	// on another goroutine than the one that records the root span (the
	// timeout middleware), hence the lock.
	mu    sync.Mutex
	resps []*gks.Response
}

// handler wraps h in the request's root span and hands the request a
// reqTrace through its context.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := &reqTrace{id: t.ids.Add(1), top: 10}
		if v, err := strconv.Atoi(r.URL.Query().Get("top")); err == nil {
			rt.top = v
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, rt)))
		end := time.Now()
		rt.mu.Lock()
		for _, resp := range rt.resps {
			t.resps.Delete(resp)
		}
		rt.mu.Unlock()
		t.record(span{Name: name, ID: rt.id, Req: rt.id, Start: start, End: end, Query: r.URL.Path})
	})
}

// tracedSearcher is the benchmark's decorator on the read path: it
// records a core.search span around every engine search and a di span
// around every Insights and Refinements call.
type tracedSearcher struct {
	gks.Searcher
	t *tracer
}

func (s *tracedSearcher) SearchContext(ctx context.Context, q string, threshold int) (*gks.Response, error) {
	start := time.Now()
	resp, err := s.Searcher.SearchContext(ctx, q, threshold)
	s.engine(ctx, start, q, resp)
	return resp, err
}

func (s *tracedSearcher) SearchBestEffortContext(ctx context.Context, q string) (*gks.Response, error) {
	start := time.Now()
	resp, err := s.Searcher.SearchBestEffortContext(ctx, q)
	s.engine(ctx, start, q, resp)
	return resp, err
}

func (s *tracedSearcher) engine(ctx context.Context, start time.Time, q string, resp *gks.Response) {
	end := time.Now()
	rt, _ := ctx.Value(reqKey{}).(*reqTrace)
	sp := span{Name: "core.search", ID: s.t.ids.Add(1), Start: start, End: end, Query: q}
	if rt != nil {
		sp.Parent, sp.Req, sp.Top = rt.id, rt.id, rt.top
	}
	if resp != nil {
		st := resp.Stages
		sp.Stages, sp.SL, sp.Results = &st, resp.SLSize, len(resp.Results)
		sp.Query = fmt.Sprintf("%s|%d", q, resp.S)
		if rt != nil {
			// Insights and Refinements receive only the response; remember
			// which request it belongs to until that request ends.
			rt.mu.Lock()
			rt.resps = append(rt.resps, resp)
			rt.mu.Unlock()
			s.t.resps.Store(resp, rt)
		}
	}
	s.t.record(sp)
}

func (s *tracedSearcher) child(name string, resp *gks.Response, start time.Time) {
	sp := span{Name: name, ID: s.t.ids.Add(1), Start: start, End: time.Now()}
	if v, ok := s.t.resps.Load(resp); ok {
		rt := v.(*reqTrace)
		sp.Parent, sp.Req = rt.id, rt.id
	}
	s.t.record(sp)
}

func (s *tracedSearcher) Insights(resp *gks.Response, m int) []gks.Insight {
	start := time.Now()
	out := s.Searcher.Insights(resp, m)
	s.child("di.insights", resp, start)
	return out
}

func (s *tracedSearcher) Refinements(resp *gks.Response, topK int) []gks.Query {
	start := time.Now()
	out := s.Searcher.Refinements(resp, topK)
	s.child("di.refine", resp, start)
	return out
}

// stack is gksd's serving stack wired in-process from the same public
// constructors cmd/gksd uses, with the benchmark's spans at the layer
// boundaries.
//
// gks.Upsert and the checkpointer's repack need the concrete *gks.System,
// so the decorator cannot sit on the write path. The write side (reloader,
// ingester, checkpointer) therefore owns a plain handler, and the read
// handler mirrors each new system, decorated, after every acknowledged
// upsert and every checkpoint.
type stack struct {
	t        *tracer
	reg      *obs.Registry
	read     *server.Handler
	write    *server.Handler
	wal      *wal.Log
	srv      *http.Server
	base     string
	crashed  atomic.Bool
	ckptDone chan struct{}
	ckptStop context.CancelFunc
	srvDone  chan error
	logf     *os.File

	mirrorMu sync.Mutex
	mirrored gks.Searcher

	ckptBytes atomic.Int64 // snapshot bytes written by checkpoints
}

func startStack(t *tracer, index string) (*stack, error) {
	s := &stack{t: t, reg: obs.NewRegistry(), srvDone: make(chan error, 1), ckptDone: make(chan struct{})}
	logf, err := os.OpenFile(filepath.Join(filepath.Dir(index), "traced.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.logf = logf
	logger := log.New(logf, "gksd ", log.LstdFlags)
	blockCache := segment.NewBlockCacheMetrics(64<<20, s.reg)
	if s.wal, err = wal.Open(index+".wal", wal.Options{Metrics: s.reg}); err != nil {
		logf.Close()
		return nil, err
	}
	loadSys := func() (gks.Searcher, error) {
		var sys *gks.System
		err := t.timeRoot("segment.open", func() (err error) {
			sys, err = gks.LoadIndexFileOpts(index, gks.SegmentOptions{Cache: blockCache, Metrics: s.reg})
			return err
		})
		if err != nil {
			return nil, err
		}
		s.reg.SetShardCount(1)
		var rec gks.Searcher
		var n int
		err = t.timeRoot("wal.replay", func() (err error) {
			rec, n, err = gks.ReplayWAL(sys, s.wal)
			return err
		})
		if err != nil {
			return nil, err
		}
		s.reg.ObserveWALReplay(n)
		s.reg.SetDocs(rec.Stats().Documents)
		return rec, nil
	}
	sys, err := loadSys()
	if err != nil {
		s.wal.Close()
		logf.Close()
		return nil, err
	}
	s.mirrored = sys
	s.read = server.NewWithCache(&tracedSearcher{Searcher: sys, t: t}, 256)
	s.reg.SetCacheStats(s.read.CacheStats)
	s.read.SetSearchObserver(s.reg)
	s.reg.SetSnapshotGeneration(s.read.Generation())
	s.write = server.New(sys)
	reloader := server.NewReloader(s.write, loadSys, s.reg, logger)

	persist := func(sys gks.Searcher) error {
		if s.crashed.Load() {
			return errors.New("process crashed")
		}
		single, ok := sys.(*gks.System)
		if !ok {
			return fmt.Errorf("cannot persist %T", sys)
		}
		if err := single.SaveSegmentFile(index); err != nil {
			return err
		}
		if fi, err := os.Stat(index); err == nil {
			s.ckptBytes.Add(fi.Size())
		}
		s.mirror() // a checkpoint may have swapped in a repacked system
		return nil
	}
	ingester := server.NewIngester(reloader, persist, s.reg, logger)
	ckpt := server.NewCheckpointer(reloader, s.wal, persist, 64, s.reg, logger)
	ckpt.EnableRepack(0.3)
	ingester.EnableWAL(s.wal, ckpt.Notify)
	ctx, cancel := context.WithCancel(context.Background())
	s.ckptStop = cancel
	go func() {
		defer close(s.ckptDone)
		ckpt.Run(ctx)
	}()

	mw := []server.Middleware{
		server.WithMetrics(s.reg),
		server.WithAccessLog(logger),
		server.WithRecovery(s.reg, logger),
		server.WithLimit(256, s.reg),
		server.WithTimeout(10 * time.Second),
	}
	docs := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ingester.Handler().ServeHTTP(w, r)
		s.mirror()
	})
	root := http.NewServeMux()
	root.Handle("/", t.handler("server.req", server.Chain(s.read, mw...)))
	root.Handle("/metrics", server.Chain(s.reg.Handler(), server.WithRecovery(s.reg, logger)))
	root.Handle("/admin/docs", t.handler("server.ingest", server.Chain(docs, server.WithRecovery(s.reg, logger))))
	root.Handle("/healthz", &server.Health{Handler: s.read, Role: "leader", WAL: s.wal, Checkpoint: ckpt})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = server.NewHTTPServer(ln.Addr().String(), root, 10*time.Second)
	go func() { s.srvDone <- s.srv.Serve(ln) }()
	return s, nil
}

// mirror hands the read handler the write side's current system.
func (s *stack) mirror() {
	s.mirrorMu.Lock()
	defer s.mirrorMu.Unlock()
	if cur := s.write.Searcher(); cur != s.mirrored {
		s.mirrored = cur
		s.read.Swap(&tracedSearcher{Searcher: cur, t: s.t})
	}
}

// crash stops the stack the way SIGKILL stops gksd, as far as its files
// go: no snapshot is written after this point, so the next boot must
// replay the WAL tail.
func (s *stack) crash() {
	s.crashed.Store(true)
	s.close()
}

func (s *stack) close() {
	if s.srv != nil {
		_ = s.srv.Close() // drops connections; Serve then returns ErrServerClosed
		<-s.srvDone
	}
	if s.ckptStop != nil {
		s.ckptStop()
		<-s.ckptDone
	}
	_ = s.wal.Close() // every acknowledged record is already durable
	s.logf.Close()
}

func (s *stack) prom() (promSample, error) {
	var b bytes.Buffer
	s.reg.WritePrometheus(&b)
	return parseProm(&b)
}

// runtimeCounters reads the traced process's GC CPU, total CPU and
// allocated bytes.
func runtimeCounters() (gcCPU, cpu, alloc float64) {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ss)
	return ss[0].Value.Float64(), ss[1].Value.Float64(), float64(ss[2].Value.Uint64())
}

// tracedRun replays the workload against the in-process stack and derives
// the per-layer metrics from its spans and its registry.
func tracedRun(p *prep) (*measured, map[string]metric, error) {
	t := &tracer{}
	index, err := p.bootDir("traced")
	if err != nil {
		return nil, nil, err
	}
	st, err := startStack(t, index)
	if err != nil {
		return nil, nil, err
	}
	before, err := st.prom()
	if err != nil {
		st.close()
		return nil, nil, err
	}
	var h0, m0, h1, m1 int64
	var gc0, cpu0, alloc0, gc1, cpu1, alloc1 float64
	m, err := drive(p, st.base, true, func(end bool) error {
		if !end {
			gc0, cpu0, alloc0 = runtimeCounters()
			h0, m0 = st.read.CacheStats()
		} else {
			gc1, cpu1, alloc1 = runtimeCounters()
			h1, m1 = st.read.CacheStats()
		}
		return nil
	})
	if err != nil {
		st.close()
		return nil, nil, err
	}
	spans := t.snapshot()
	after, err := st.prom()
	if err != nil {
		st.close()
		return nil, nil, err
	}
	final, ok := st.write.Searcher().(*gks.System)
	if !ok {
		st.close()
		return nil, nil, fmt.Errorf("traced stack serves %T, not a single index", st.write.Searcher())
	}
	check := writeChecker(p, m)
	check("after load", st.base)
	st.crash()
	ckptBytes := st.ckptBytes.Load()

	restartFrom := len(t.snapshot())
	for i := 0; i < crashes; i++ {
		flushDirty()
		if st, err = startStack(t, index); err != nil {
			return nil, nil, fmt.Errorf("restart: %w", err)
		}
		if i < crashes-1 {
			st.crash()
		}
	}
	check("after restart", st.base)
	st.close()
	all := t.snapshot()
	if err := writeSpans(filepath.Join(p.dir, "spans.jsonl"), all); err != nil {
		return nil, nil, err
	}

	layers := spanMetrics(spans, all[restartFrom:])
	add := func(name string, v float64, unit string) { layers[name] = metric{v, unit} }
	add("server.cache_hit_ratio", ratio(float64(h1-h0), float64(h1-h0+m1-m0)), "ratio")
	d := func(series string) float64 { return delta(before, after, series) }
	add("server.checkpoints", d(`gks_wal_checkpoints_total{result="success"}`), "count")
	add("server.checkpoint_ms", 1000*ratio(d("gks_wal_checkpoint_duration_seconds_sum"), d("gks_wal_checkpoint_duration_seconds_count")), "ms")
	add("server.repacks", d("gks_repack_total"), "count")
	// The registry starts with the stack, so its block counters cover the
	// boot, where the WAL replay touches every posting list, and the load.
	hits, misses := after["gks_segment_block_cache_hits_total"], after["gks_segment_block_cache_misses_total"]
	add("segment.block_misses", misses, "count")
	add("segment.block_hit_ratio", ratio(hits, hits+misses), "ratio")
	add("segment.fetch_ms", 1000*ratio(after["gks_segment_block_fetch_duration_seconds_sum"], after["gks_segment_block_fetch_duration_seconds_count"]), "ms")
	fsyncMS := 1000 * ratio(d("gks_wal_fsync_duration_seconds_sum"), d("gks_wal_fsync_duration_seconds_count"))
	add("wal.fsync_ms", fsyncMS, "ms")
	add("wal.records_per_fsync", ratio(d("gks_wal_fsync_batch_records_sum"), d("gks_wal_fsync_batch_records_count")), "count")
	ingestMS := 1000 * ratio(d("gks_ingest_duration_seconds_sum"), d("gks_ingest_duration_seconds_count"))
	add("index.upsert_ms", ingestMS-fsyncMS, "ms")
	add("index.pack_debt", gks.PackDebt(final), "ratio")
	add("index.node_table_mib", float64(final.NodeTableBytes())/(1<<20), "MiB")
	add("wal.write_amp", writeAmp(p, m, ckptBytes), "ratio")
	add("runtime.gc_cpu_frac", ratio(gc1-gc0, cpu1-cpu0), "ratio")
	add("runtime.alloc_mib_per_op", ratio(alloc1-alloc0, float64(succeeded(m.window)))/(1<<20), "MiB")
	return m, layers, nil
}

// writeAmp is the bytes the WAL and the checkpoints wrote per byte of
// acknowledged document XML.
func writeAmp(p *prep, m *measured, ckptBytes int64) float64 {
	ops, rs := p.sentOps(m)
	var logged, xml float64
	var buf [binary.MaxVarintLen64]byte
	uv := func(v uint64) float64 { return float64(binary.PutUvarint(buf[:], v)) }
	for i, o := range ops {
		if o.kind != opUpsert || !rs[i].ok {
			continue
		}
		// A frame: 8-byte header, op byte, LSN, then length-prefixed
		// name and document (internal/wal).
		logged += 9 + uv(rs[i].lsn) + uv(uint64(len(o.name))) + float64(len(o.name)) + uv(uint64(o.xmlBytes)) + float64(o.xmlBytes)
		xml += float64(o.xmlBytes)
	}
	return ratio(logged+float64(ckptBytes), xml)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMetrics averages the spans of the load (sample, warm-up, window
// and write phase; the boot's segment open included) and of the restarts.
func spanMetrics(load, restarts []span) map[string]metric {
	byName := map[string][]span{}
	children := map[int64][]span{}
	for _, s := range load {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	meanMS := func(ss []span) float64 {
		var sum time.Duration
		for _, s := range ss {
			sum += s.dur()
		}
		return ratio(ms(sum), float64(len(ss)))
	}
	out := map[string]metric{}
	add := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	reqs := byName["server.req"]
	var self time.Duration
	for _, r := range reqs {
		self += selfTime(r, children[r.ID])
	}
	add("server.req_ms", meanMS(reqs), "ms")
	add("server.self_ms", ratio(ms(self), float64(len(reqs))), "ms")
	add("server.ingest_ms", meanMS(byName["server.ingest"]), "ms")
	add("di.insights_ms", meanMS(byName["di.insights"]), "ms")
	add("di.refine_ms", meanMS(byName["di.refine"]), "ms")

	searches := byName["core.search"]
	add("core.search_ms", meanMS(searches), "ms")
	var stages [5]time.Duration
	n := 0
	// Work sizes count each distinct query once, so they do not depend on
	// which repeats the response cache absorbed.
	seen := map[string]bool{}
	var sl, results, rows, distinct float64
	for _, s := range searches {
		if s.Stages == nil {
			continue
		}
		n++
		st := s.Stages
		for i, d := range []time.Duration{st.Merge, st.Windows, st.Lift, st.Filter, st.Rank} {
			stages[i] += d
		}
		if seen[s.Query] {
			continue
		}
		seen[s.Query] = true
		distinct++
		sl += float64(s.SL)
		results += float64(s.Results)
		rows += float64(min(s.Top, s.Results))
	}
	for i, name := range []string{"merge", "windows", "lift", "filter", "rank"} {
		add("core."+name+"_ms", ratio(ms(stages[i]), float64(n)), "ms")
	}
	add("core.sl_entries", ratio(sl, distinct), "count")
	add("core.results", ratio(results, distinct), "count")
	add("core.returned_ratio", ratio(rows, results), "ratio")

	opens, replays := byName["segment.open"], []span(nil)
	for _, s := range restarts {
		switch s.Name {
		case "segment.open":
			opens = append(opens, s)
		case "wal.replay":
			replays = append(replays, s)
		}
	}
	add("segment.open_ms", meanMS(opens), "ms")
	add("wal.replay_ms", meanMS(replays), "ms")
	return out
}

// selfTime is the part of parent's interval that none of its children
// covers.
func selfTime(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.Before(end) {
			if v.b.After(end) {
				covered += v.b.Sub(end)
				end = v.b
			}
			continue
		}
		covered += v.b.Sub(v.a)
		end = v.b
	}
	return parent.dur() - covered
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
