package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	gks "repro"
	"repro/internal/datagen"
	"repro/internal/textproc"
	"repro/internal/xmltree"
)

// corpusSeed is gksgen's default generator seed: the corpora are fixed,
// and the --seed flag drives only the op stream.
const corpusSeed = 42

// corpusScale is the datagen scale of both corpora.
const corpusScale = 10

// poolSeed fixes the query pools, so the correctness sample (sampleSize
// pool entries spread evenly over the pool) is the same for every --seed.
const poolSeed = 1

// sampleSize is how many pool queries the correctness check compares.
const sampleSize = 16

// warmup is the untimed load that precedes the measured window, so the
// block cache, response cache, allocator and (on a mixed workload) the
// checkpointer reach steady state first.
const warmup = 2 * time.Second

type opKind int

const (
	opSearch opKind = iota
	opInsights
	opRefine
	opUpsert
	numKinds
)

var kindNames = [numKinds]string{"search", "insights", "refine", "upsert"}

// op is one scheduled request.
type op struct {
	at       time.Duration // send time, from the start of its phase
	kind     opKind
	path     string // request target (path and query)
	body     []byte // JSON body of an upsert
	name     string // document name of an upsert
	marker   string // unique token carried by an upsert's document
	xmlBytes int    // size of an upsert's document
}

// workload is one traffic mix against one corpus. README.md says why each
// exists.
type workload struct {
	name     string
	corpus   string     // "nasa" or "dblp"
	readRate float64    // Poisson reads per second
	mix      [3]float64 // shares of search, insights and refine among reads
	zipf     float64    // Zipf exponent of pool draws; 0 draws uniformly
	// mixed runs mixedWrites upserts inside the measured window, alongside
	// the reads. Otherwise the window is read-only and probeWrites upserts
	// follow it in a write phase of their own, which exercises the write
	// path, the document checks and the WAL replay on every workload.
	mixed bool
}

// Upserts go at a fixed writeRate that gksd sustains on 2 vCPUs. A mixed
// window lasts long enough for at least mixedWrites of them, a p99 with
// ten samples beyond it.
const (
	writeRate   = 50
	mixedWrites = 1000
	probeWrites = 100
)

var workloads = []workload{
	// Engine-bound: ranking and materializing thousands of results.
	{
		name:   "nasa-broad",
		corpus: "nasa", readRate: 100, mix: [3]float64{1, 0, 0},
	},
	// Server-bound: HTTP, middleware, metrics, response cache, DI, JSON.
	{
		name:   "bib-lookup",
		corpus: "dblp", readRate: 500, mix: [3]float64{0.8, 0.1, 0.1}, zipf: 1.1,
	},
	// The write path under reads, and what it costs them.
	{
		name:   "ingest-mixed",
		corpus: "dblp", readRate: 200, mix: [3]float64{1, 0, 0}, zipf: 1.1, mixed: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corpusDoc generates a corpus in-process.
func corpusDoc(corpus string) (*xmltree.Document, error) {
	switch corpus {
	case "nasa":
		return datagen.NASA(datagen.Config{Seed: corpusSeed, Scale: corpusScale}), nil
	case "dblp":
		return datagen.PaperDBLP(corpusScale), nil
	}
	return nil, fmt.Errorf("unknown corpus %q", corpus)
}

// writeCorpus writes doc as XML to path.
func writeCorpus(path string, doc *xmltree.Document) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := xmltree.WriteXML(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// query is one pool entry: keywords and threshold s.
type query struct {
	q string
	s int
}

// queryPool builds a corpus's fixed query pool. Keywords come from the
// served index and are kept only when HasMatches confirms them: index
// terms are stems, and re-stemming a stem can miss.
func queryPool(corpus string, doc *xmltree.Document, sys *gks.System) ([]query, error) {
	rng := rand.New(rand.NewSource(poolSeed))
	switch corpus {
	case "nasa":
		return nasaPool(rng, sys)
	case "dblp":
		return dblpPool(rng, doc, sys)
	}
	return nil, fmt.Errorf("unknown corpus %q", corpus)
}

// nasaPool draws Figure 8 shaped queries: n=8 at s=2, two keywords among
// the 32 most frequent terms and six stratified by posting-list quartile.
// The pool is far larger than a run's reads, so the response cache
// rarely hits.
func nasaPool(rng *rand.Rand, sys *gks.System) ([]query, error) {
	var terms []string
	counts := map[string]int{}
	for _, kf := range sys.TopKeywords(0) { // most frequent first
		if sys.HasMatches(kf.Keyword) {
			terms = append(terms, kf.Keyword)
			counts[kf.Keyword] = kf.Count
		}
	}
	if len(terms) < 32+4*8 {
		return nil, fmt.Errorf("nasa corpus has only %d matchable terms", len(terms))
	}
	top, rest := terms[:32], terms[32:]
	quart := len(rest) / 4
	const size = 25000
	type costed struct {
		q    query
		cost int
	}
	pool := make([]costed, 0, size)
	for len(pool) < size {
		seen := map[string]bool{}
		var kws []string
		pick := func(from []string) {
			for {
				t := from[rng.Intn(len(from))]
				if !seen[t] {
					seen[t] = true
					kws = append(kws, t)
					return
				}
			}
		}
		pick(top)
		pick(top)
		for i := 0; i < 6; i++ {
			q := i % 4
			pick(rest[q*quart : (q+1)*quart])
		}
		cost := 0
		for _, kw := range kws {
			cost += counts[kw]
		}
		pool = append(pool, costed{query{q: strings.Join(kws, " "), s: 2}, cost})
	}
	// Ordered by the merged-list size the keywords imply, so a systematic
	// sample (see buildStream) spans the whole cost range in every run.
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].cost < pool[j].cost })
	out := make([]query, len(pool))
	for i, c := range pool {
		out[i] = c.q
	}
	return out, nil
}

// dblpPool draws the paper's Table 6 shape: 2-3 keywords at s=|Q| that
// co-occur in one randomly chosen entry (author surname, title word,
// venue or year), so every query has an answer.
func dblpPool(rng *rand.Rand, doc *xmltree.Document, sys *gks.System) ([]query, error) {
	entries := doc.Root.Children
	if len(entries) == 0 {
		return nil, fmt.Errorf("dblp corpus has no entries")
	}
	const size = 20000
	pool := make([]query, 0, size)
	seenQ := map[string]bool{}
	for tries := 0; len(pool) < size; tries++ {
		if tries > 50*size {
			return nil, fmt.Errorf("dblp pool: only %d distinct queries", len(pool))
		}
		cands := entryTokens(entries[rng.Intn(len(entries))], sys)
		k := 2 + rng.Intn(2)
		if len(cands) < k {
			continue
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		kws := append([]string(nil), cands[:k]...)
		sort.Strings(kws)
		q := strings.Join(kws, " ")
		if seenQ[q] {
			continue
		}
		seenQ[q] = true
		pool = append(pool, query{q: q, s: k})
	}
	return pool, nil
}

// entryTokens returns the distinct searchable tokens of one bibliography
// entry: author surnames, title words, venue words and the year.
func entryTokens(entry *xmltree.Node, sys *gks.System) []string {
	seen := map[string]bool{}
	var out []string
	add := func(tok string) {
		if tok == "" || seen[tok] || textproc.IsStopword(tok) || !sys.HasMatches(tok) {
			return
		}
		seen[tok] = true
		out = append(out, tok)
	}
	for _, field := range entry.Children {
		text := nodeText(field)
		toks := textproc.Tokenize(text)
		if len(toks) == 0 {
			continue
		}
		switch field.Label {
		case "author":
			add(toks[len(toks)-1])
		case "title", "booktitle", "journal", "year":
			for _, t := range toks {
				add(t)
			}
		}
	}
	return out
}

func nodeText(n *xmltree.Node) string {
	var b strings.Builder
	for _, c := range n.Children {
		if c.Kind == xmltree.Text {
			b.WriteString(c.Text)
		}
	}
	return b.String()
}

// stream is a workload's generated op stream, one slice per phase, each
// with send times measured from the start of that phase.
type stream struct {
	warmup, window, writes []op
}

// buildStream generates the op stream for a seed: Poisson reads drawn
// from the pool, and upserts at a fixed rate. The same seed gives a
// byte-identical stream (see streamHash).
//
// A mixed workload's window lasts long enough for all its upserts, at
// least window; the others read for window and then write a few.
func buildStream(w workload, pool []query, seed int64, window time.Duration) (stream, error) {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if w.zipf > 0 {
		zipf = rand.NewZipf(rng, w.zipf, 1, uint64(len(pool)-1))
	}
	// reads places exactly rate*d arrivals uniformly in [0, d): a Poisson
	// process conditioned on its count, so every run carries the same
	// number of reads.
	//
	// Zipf draws repeat the same hot queries in every run. Uniform draws
	// are a systematic sample instead, every stride-th query of the
	// cost-ordered pool from a random offset, in random order: each run
	// then spans the same cost range, which a plain random draw of a
	// heavy-tailed cost does not.
	reads := func(d time.Duration) []op {
		ops := make([]op, int(w.readRate*d.Seconds()))
		stride := max(1, len(pool)/len(ops))
		first := rng.Intn(stride)
		order := rng.Perm(len(ops))
		for i := range ops {
			at := time.Duration(rng.Int63n(int64(d)))
			q := pool[(first+order[i]*stride)%len(pool)]
			if zipf != nil {
				q = pool[zipf.Uint64()]
			}
			ops[i] = readOp(at, w.mix, rng.Float64(), q)
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
		return ops
	}
	docs := &docGen{rng: rng, seed: seed}
	upserts := func(n int) ([]op, error) {
		ops := make([]op, n)
		for i := range ops {
			var err error
			if ops[i], err = docs.next(time.Duration(float64(i) / writeRate * float64(time.Second))); err != nil {
				return nil, err
			}
		}
		return ops, nil
	}
	merge := func(a, b []op) []op {
		out := append(a, b...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
		return out
	}
	var st stream
	if !w.mixed {
		st.warmup = reads(warmup)
		st.window = reads(window)
		var err error
		st.writes, err = upserts(probeWrites)
		return st, err
	}
	// A mixed warm-up writes too, so the first, colder checkpoint falls
	// before the window.
	ups, err := upserts(int(warmup.Seconds() * writeRate))
	if err != nil {
		return stream{}, err
	}
	st.warmup = merge(reads(warmup), ups)
	window = max(window, time.Duration(mixedWrites/writeRate)*time.Second)
	if ups, err = upserts(int(window.Seconds() * writeRate)); err != nil {
		return stream{}, err
	}
	st.window = merge(reads(window), ups)
	return st, nil
}

// readOp builds a read of q at time at; u in [0,1) picks the endpoint.
func readOp(at time.Duration, mix [3]float64, u float64, q query) op {
	kind := opSearch
	switch {
	case u < mix[0]:
	case u < mix[0]+mix[1]:
		kind = opInsights
	default:
		kind = opRefine
	}
	return op{at: at, kind: kind, path: readPath(kind, q)}
}

func readPath(kind opKind, q query) string {
	v := url.Values{}
	v.Set("q", q.q)
	v.Set("s", fmt.Sprint(q.s))
	switch kind {
	case opSearch:
		v.Set("top", "10")
	case opInsights:
		v.Set("m", "5")
	case opRefine:
		v.Set("top", "5")
	}
	return "/" + kindNames[kind] + "?" + v.Encode()
}

// docGen generates upserts: 5-entry DBLP documents, 70% under a new name
// and 30% replacing an earlier one, each with a unique marker token.
type docGen struct {
	rng   *rand.Rand
	seed  int64
	names []string
	n     int
}

func (g *docGen) next(at time.Duration) (op, error) {
	name := fmt.Sprintf("bench-%d.xml", len(g.names))
	if len(g.names) > 0 && g.rng.Float64() < 0.3 {
		name = g.names[g.rng.Intn(len(g.names))]
	} else {
		g.names = append(g.names, name)
	}
	// A marker ends in a digit, which no stemming rule strips.
	marker := fmt.Sprintf("mk%dq%d", g.seed, g.n)
	g.n++
	doc := datagen.DBLP(datagen.BibConfig{Config: datagen.Config{Seed: g.rng.Int63()}, Entries: 5})
	doc.Root.Children[0].Append(xmltree.ET("note", marker))
	var xml bytes.Buffer
	if err := xmltree.WriteXML(&xml, doc); err != nil {
		return op{}, err
	}
	body, err := json.Marshal(map[string]string{"name": name, "xml": xml.String()})
	if err != nil {
		return op{}, err
	}
	return op{at: at, kind: opUpsert, path: "/admin/docs", body: body, name: name, marker: marker, xmlBytes: xml.Len()}, nil
}

// streamHash is a digest of the whole op stream, for the environment
// stamp: two runs with equal hashes sent byte-identical requests on an
// identical schedule.
func streamHash(st stream) string {
	h := sha256.New()
	for i, phase := range [][]op{st.warmup, st.window, st.writes} {
		fmt.Fprintf(h, "phase %d %d\n", i, len(phase))
		for _, o := range phase {
			fmt.Fprintf(h, "%d %d %s %d\n", o.at, o.kind, o.path, len(o.body))
			h.Write(o.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
