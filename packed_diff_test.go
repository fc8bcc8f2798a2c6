package gks

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/schema"
	"repro/internal/xmltree"
)

// Differential tests for the packed (DAG-compressed) node table, the only
// node table an index holds. Two oracles pin it. First, every per-ordinal
// accessor is checked against the records the builder derives from the
// document trees (treeRecords below, an independent re-derivation of the
// §2.2 categorization included), at every corpus and mutation step.
// Second, the read surface is diffed against a cold rebuild of the same
// documents — built through the parallel builder's merge path when the
// system under test came from the serial one. The segment differential
// suite exercises the packed codec; this file pins the table itself,
// without a file format in between, so a codec change cannot mask an
// accessor bug.

// treeRecord is what the builder derives from one element of a document
// tree.
type treeRecord struct {
	id       dewey.ID
	label    string
	cat      Category
	children int32
	subtree  int32
	parent   int32
	hasValue bool
	value    string
}

// treeRecords derives the pre-order records of doc, numbering ordinals
// from base.
func treeRecords(doc *Document, base int32) []treeRecord {
	var recs []treeRecord
	var walk func(n *Node, isRep bool, parent int32) (qualAttr, repVis bool)
	walk = func(n *Node, isRep bool, parent int32) (bool, bool) {
		ord := int32(len(recs))
		recs = append(recs, treeRecord{id: n.ID, label: n.Label, children: int32(len(n.Children)), parent: parent})
		labels := map[string]int{}
		for _, c := range n.Children {
			if c.IsElement() {
				labels[c.Label]++
			} else {
				recs[ord].hasValue = true
			}
		}
		if recs[ord].hasValue {
			recs[ord].value = n.Value()
		}
		var attr, rep, both int
		for _, c := range n.Children {
			if !c.IsElement() {
				continue
			}
			switch qa, rv := walk(c, labels[c.Label] > 1, base+ord); {
			case qa && rv:
				both++
			case qa:
				attr++
			case rv:
				rep++
			}
		}
		r := &recs[ord]
		r.subtree = int32(len(recs)) - ord
		// Defs 2.1.1–2.1.4.
		switch {
		case n.DirectlyContainsValue() && isRep:
			r.cat = RepeatingNode
		case n.DirectlyContainsValue():
			r.cat = AttributeNode
		default:
			if isRep {
				r.cat |= RepeatingNode
			}
			if both >= 2 || (both == 1 && attr+rep >= 1) || (attr >= 1 && rep >= 1) {
				r.cat |= EntityNode
			}
			if r.cat == 0 {
				r.cat = ConnectingNode
			}
		}
		switch {
		case r.cat&RepeatingNode != 0:
			return false, true
		case r.cat == AttributeNode:
			return true, false
		default:
			return attr+both > 0, rep+both > 0
		}
	}
	walk(doc.Root, false, -1)
	return recs
}

// liveDocs returns sys's documents in Dewey (node-table) order.
func liveDocs(sys *System) []*Document {
	docs := append([]*Document(nil), sys.repo.Docs...)
	sort.Slice(docs, func(i, j int) bool { return docs[i].DocID < docs[j].DocID })
	return docs
}

// assertTableMatchesTree checks every accessor of every live ordinal of
// sys's node table against the records derived from its document trees.
// cats, when non-nil, overrides the derived categories (by ordinal).
func assertTableMatchesTree(t *testing.T, sys *System, cats []Category) {
	t.Helper()
	ix := sys.ix
	docs := liveDocs(sys)
	spans := ix.LiveDocSpans()
	if len(spans) != len(docs) {
		t.Fatalf("%d live document spans, %d live documents", len(spans), len(docs))
	}
	for k, sp := range spans {
		recs := treeRecords(docs[k], sp.Start)
		if int32(len(recs)) != sp.End-sp.Start || sp.Name != docs[k].Name {
			t.Fatalf("span %d (%s, %d nodes) does not hold document %s (%d nodes)",
				k, sp.Name, sp.End-sp.Start, docs[k].Name, len(recs))
		}
		for i, r := range recs {
			ord := sp.Start + int32(i)
			want := r.cat
			if cats != nil {
				want = cats[ord]
			}
			switch {
			case !dewey.Equal(ix.IDOf(ord), r.id) || ix.DocOf(ord) != r.id.Doc || ix.DepthOf(ord) != int32(r.id.Depth()):
				t.Fatalf("ord %d: id %v doc %d depth %d, want %v", ord, ix.IDOf(ord), ix.DocOf(ord), ix.DepthOf(ord), r.id)
			case ix.LabelOf(ord) != r.label:
				t.Fatalf("ord %d: label %q, want %q", ord, ix.LabelOf(ord), r.label)
			case ix.CatOf(ord) != want:
				t.Fatalf("ord %d (%v): category %v, want %v", ord, r.id, ix.CatOf(ord), want)
			case ix.ChildCountOf(ord) != r.children || ix.SubtreeSizeOf(ord) != r.subtree:
				t.Fatalf("ord %d: children %d subtree %d, want %d %d", ord, ix.ChildCountOf(ord), ix.SubtreeSizeOf(ord), r.children, r.subtree)
			case ix.ParentOf(ord) != r.parent:
				t.Fatalf("ord %d: parent %d, want %d", ord, ix.ParentOf(ord), r.parent)
			case ix.HasValueAt(ord) != r.hasValue || ix.ValueAt(ord) != r.value:
				t.Fatalf("ord %d: value %v %q, want %v %q", ord, ix.HasValueAt(ord), ix.ValueAt(ord), r.hasValue, r.value)
			}
			if got, ok := ix.OrdinalOf(r.id); !ok || got != ord {
				t.Fatalf("OrdinalOf(%v) = %d, %v; want %d", r.id, got, ok, ord)
			}
		}
	}
}

// rebuild indexes docs (in Dewey order) from scratch with the given
// number of builder workers (1 is the serial builder; more merge
// per-document partials), keeping their document numbers.
func rebuild(t *testing.T, docs []*Document, workers int) *System {
	t.Helper()
	repo := &xmltree.Repository{Docs: docs}
	ix, err := index.BuildParallel(repo, index.DefaultOptions(), workers)
	if err != nil {
		t.Fatal(err)
	}
	return newSystem(ix, repo)
}

// packedSystem indexes docs and checks the table against the trees.
func packedSystem(t *testing.T, docs ...*Document) *System {
	t.Helper()
	sys, err := IndexDocuments(docs...)
	if err != nil {
		t.Fatal(err)
	}
	assertTableMatchesTree(t, sys, nil)
	return sys
}

// packedCorpora extends the segment corpora with a duplicate-heavy DBLP
// corpus — shared subtrees are where the shape table actually dedups, so
// the instance-dispatch paths get real coverage.
func packedCorpora(t *testing.T) map[string][]*Document {
	t.Helper()
	c := segmentCorpora(t)
	c["dblp-dup"] = []*Document{datagen.DBLP(datagen.BibConfig{
		Config:      datagen.Config{Seed: 13, Scale: 2},
		DupFraction: 0.6,
	})}
	return c
}

// normExplain strips the wall-clock timings from an explanation; every
// counted quantity (posting sizes, blocks, LCP nodes, candidates,
// survivors) and the embedded response must match exactly.
func normExplain(e *Explanation) Explanation {
	if e == nil {
		return Explanation{}
	}
	c := *e
	c.MergeTime, c.ScanTime, c.RankTime = 0, 0, 0
	c.Stages = core.StageTimings{}
	if c.Response != nil {
		r := normResp(c.Response)
		c.Response = &r
	}
	return c
}

func diffExplain(t *testing.T, a, b *System, query string, s int) {
	t.Helper()
	ea, errA := a.Explain(query, s)
	eb, errB := b.Explain(query, s)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("Explain(%q,%d) error mismatch: %v vs %v", query, s, errA, errB)
	}
	if errA != nil {
		if errA.Error() != errB.Error() {
			t.Fatalf("Explain(%q,%d) error text: %v vs %v", query, s, errA, errB)
		}
		return
	}
	if !reflect.DeepEqual(normExplain(ea), normExplain(eb)) {
		t.Fatalf("Explain(%q,%d) differ:\n%+v\n%+v", query, s, normExplain(ea), normExplain(eb))
	}
}

// diffAggregates compares every whole-index summary the System exposes.
func diffAggregates(t *testing.T, want, got *System) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats(), got.Stats()) {
		t.Fatalf("Stats differ:\nwant: %+v\ngot:  %+v", want.Stats(), got.Stats())
	}
	if sw, sg := want.Schema(), got.Schema(); !reflect.DeepEqual(sw, sg) {
		t.Fatalf("Schema differ: want=%v got=%v", sw, sg)
	}
	if kw, kg := want.TopKeywords(10), got.TopKeywords(10); !reflect.DeepEqual(kw, kg) {
		t.Fatalf("TopKeywords differ: want=%v got=%v", kw, kg)
	}
	if lw, lg := want.LabelHistogram(), got.LabelHistogram(); !reflect.DeepEqual(lw, lg) {
		t.Fatalf("LabelHistogram differ: want=%v got=%v", lw, lg)
	}
	if dw, dg := want.DepthHistogram(), got.DepthHistogram(); !reflect.DeepEqual(dw, dg) {
		t.Fatalf("DepthHistogram differ: want=%v got=%v", dw, dg)
	}
	if vw, vg := want.ValidateIndex(), got.ValidateIndex(); vw != nil || vg != nil {
		t.Fatalf("ValidateIndex: want=%v got=%v", vw, vg)
	}
}

// TestPackedDifferentialSearch is the central packed-node-table property
// test: over randomized corpora (including a duplicate-heavy one) the
// table matches the document trees, and over seeded random queries the
// system answers the entire read surface — search, top-k, best effort,
// insights, refinements, explain, SLCA, ELCA, schema and every histogram
// — identically to a cold rebuild through the parallel builder.
func TestPackedDifferentialSearch(t *testing.T) {
	for name, docs := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			sys := packedSystem(t, docs...)
			cold := rebuild(t, liveDocs(sys), 4)
			diffAggregates(t, cold, sys)

			kws := vocab(cold)
			rng := rand.New(rand.NewSource(77))
			for i, query := range randomQueries(rng, kws, 40) {
				s := 1 + rng.Intn(3)
				diffSearchSurface(t, cold, sys, query, s)
				if i%5 == 0 {
					diffExplain(t, cold, sys, query, s)
				}
			}
			for i := 0; i < 5; i++ {
				kw := kws[rng.Intn(len(kws))] + "x"
				if se, sp := cold.Suggest(kw, 2, 3), sys.Suggest(kw, 2, 3); !reflect.DeepEqual(se, sp) {
					t.Fatalf("Suggest(%q) differ: cold=%v packed=%v", kw, se, sp)
				}
			}

			// Schema-driven recategorization rebuilds the packed table with
			// the new categories; every other field must survive it, and
			// both systems must stay identical after.
			cats := schema.Infer(sys.ix).Categorize(sys.ix)
			ce, cp := cold.ApplySchemaCategorization(), sys.ApplySchemaCategorization()
			if ce != cp {
				t.Fatalf("ApplySchemaCategorization: cold recategorized %d, packed %d", ce, cp)
			}
			assertTableMatchesTree(t, sys, cats)
			diffAggregates(t, cold, sys)
			for _, query := range randomQueries(rng, kws, 10) {
				diffSearchSurface(t, cold, sys, query, 2)
			}
		})
	}
}

// bagDoc builds a small random document over a fixed vocabulary; repeated
// words across documents make shared shapes and multi-doc postings common.
func bagDoc(name string, rng *rand.Rand, words []string) *Document {
	root := xmltree.E("collection")
	n := 3 + rng.Intn(8)
	for i := 0; i < n; i++ {
		entry := xmltree.E("entry")
		entry.Append(xmltree.ET("title", words[rng.Intn(len(words))]+" "+words[rng.Intn(len(words))]))
		entry.Append(xmltree.ET("year", words[rng.Intn(len(words))]))
		root.Append(entry)
	}
	return xmltree.NewDocument(name, 0, root)
}

// TestPackedMutationHistoryDifferential drives random mutation histories
// (add, replace, delete) against a packed system and pins two properties:
// after every mutation the live table matches the document trees, and the
// compacted survivor — Compacted() over whatever tombstones and appends
// accumulated — answers the full search surface identically to a cold
// rebuild from the surviving documents.
func TestPackedMutationHistoryDifferential(t *testing.T) {
	words := []string{
		"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
		"hotel", "india", "juliet", "kilo", "lima", "mike", "november",
	}
	for trial := 0; trial < 4; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			var docs []*Document
			var names []string
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("d%d", i)
				docs = append(docs, bagDoc(name, rng, words))
				names = append(names, name)
			}
			sys := packedSystem(t, docs...)
			nextName := len(names)

			for step := 0; step < 30; step++ {
				switch op := rng.Intn(3); op {
				case 0: // add a new document
					name := fmt.Sprintf("d%d", nextName)
					nextName++
					next, replaced, err := Upsert(sys, bagDoc(name, rng, words))
					if err != nil || replaced {
						t.Fatalf("step %d: add %s: replaced=%v err=%v", step, name, replaced, err)
					}
					sys = next.(*System)
					names = append(names, name)
				case 1: // replace an existing document
					name := names[rng.Intn(len(names))]
					next, replaced, err := Upsert(sys, bagDoc(name, rng, words))
					if err != nil || !replaced {
						t.Fatalf("step %d: replace %s: replaced=%v err=%v", step, name, replaced, err)
					}
					sys = next.(*System)
				default: // delete (keep >=2 documents so ErrLastDocument's
					// fresh-rebuild path stays out of this history)
					if len(names) <= 2 {
						continue
					}
					i := rng.Intn(len(names))
					next, err := Remove(sys, names[i])
					if err != nil {
						t.Fatalf("step %d: remove %s: %v", step, names[i], err)
					}
					sys = next.(*System)
					names = append(names[:i], names[i+1:]...)
				}
				assertTableMatchesTree(t, sys, nil)
			}

			comp := newSystem(sys.ix.Compacted(), sys.repo)
			assertTableMatchesTree(t, comp, nil)
			// Cold rebuild from the survivors with their document ids
			// preserved (Repository.Add would renumber).
			cold := rebuild(t, liveDocs(sys), 1)

			diffAggregates(t, cold, comp)
			kws := vocab(cold)
			for i, query := range randomQueries(rng, kws, 25) {
				s := 1 + rng.Intn(3)
				diffSearchSurface(t, cold, comp, query, s)
				if i%5 == 0 {
					diffExplain(t, cold, comp, query, s)
				}
			}
		})
	}
}

// TestPackedDeltaAppendEquivalence is the differential oracle for the
// delta-maintaining pack: a random append/replace/delete history is driven
// through AppendAs, which extends the pack incrementally. After every step
// the live table must match the document trees; at checkpoints the index
// must hold the same logical state as a cold rebuild of the survivors —
// statistics, document sets, doc-insensitive results — and after a final
// Compacted() its node table and postings must equal the cold rebuild's.
// Mid-history the index crosses the repack threshold and pays its debt
// via Repacked(), so the equivalence also covers resuming delta appends on
// a repacked table.
func TestPackedDeltaAppendEquivalence(t *testing.T) {
	words := []string{
		"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
		"hotel", "india", "juliet", "kilo", "lima", "mike", "november",
	}
	queries := append(append([]string(nil), words[:8]...), "alpha bravo", "echo kilo lima")
	for trial := 0; trial < 4; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(500 + trial)))
			live := map[string]*Document{} // survivors by name, numbered in place by AppendAs
			var docs []*Document
			for i := 0; i < 4; i++ {
				d := bagDoc(fmt.Sprintf("d%d", i), rng, words)
				docs = append(docs, d)
				live[d.Name] = d
			}
			ix := packedSystem(t, docs...).ix
			names := []string{"d0", "d1", "d2", "d3"}
			nextName := len(names)
			repacked := false
			current := func() *System {
				repo := &xmltree.Repository{}
				for _, d := range live {
					repo.Docs = append(repo.Docs, d)
				}
				return newSystem(ix, repo)
			}

			appendDoc := func(doc *Document) {
				t.Helper()
				next, err := index.AppendAs(ix, doc, ix.NextDocID(), index.DefaultOptions())
				if err != nil {
					t.Fatalf("append %s: %v", doc.Name, err)
				}
				ix, live[doc.Name] = next, doc
			}
			deleteDoc := func(name string) {
				t.Helper()
				next, err := ix.DeleteDoc(name)
				if err != nil {
					t.Fatalf("delete %s: %v", name, err)
				}
				ix = next
				delete(live, name)
			}

			for step := 0; step < 24; step++ {
				switch rng.Intn(3) {
				case 0:
					name := fmt.Sprintf("d%d", nextName)
					nextName++
					appendDoc(bagDoc(name, rng, words))
					names = append(names, name)
				case 1:
					name := names[rng.Intn(len(names))]
					deleteDoc(name)
					appendDoc(bagDoc(name, rng, words))
				default:
					if len(names) <= 2 {
						continue
					}
					i := rng.Intn(len(names))
					deleteDoc(names[i])
					names = append(names[:i], names[i+1:]...)
				}
				if err := ix.Validate(); err != nil {
					t.Fatalf("step %d: validate: %v", step, err)
				}
				assertTableMatchesTree(t, current(), nil)
				if debt := ix.PackDebt(); !repacked && debt >= 0.5 {
					before := index.PackCount()
					ix = ix.Repacked()
					if index.PackCount() == before {
						t.Fatalf("step %d: Repacked() at debt %.2f did not repack", step, debt)
					}
					if d := ix.PackDebt(); d != 0 {
						t.Fatalf("step %d: debt %.2f survives Repacked()", step, d)
					}
					repacked = true
				}
				if step%6 == 5 {
					sys := current()
					assertStateEqual(t, fmt.Sprintf("trial %d step %d", trial, step),
						rebuild(t, liveDocs(sys), 1), sys, queries)
				}
			}
			if !repacked {
				// Histories are seeded, so the threshold crossing is
				// deterministic; flag a seed change that silently stops
				// covering the repack-resume path.
				t.Error("history never crossed the repack threshold")
			}

			comp := newSystem(ix.Compacted(), current().repo)
			cold := rebuild(t, liveDocs(comp), 1)
			assertTableMatchesTree(t, comp, nil)
			for ord := range int32(cold.ix.NodeCount()) {
				if a, b := comp.ix.CatOf(ord), cold.ix.CatOf(ord); a != b {
					t.Fatalf("compacted ord %d: category %v, cold rebuild %v", ord, a, b)
				}
			}
			if !reflect.DeepEqual(comp.ix.Postings, cold.ix.Postings) {
				t.Fatal("compacted postings diverge from the cold rebuild")
			}
			if !reflect.DeepEqual(comp.ix.DocNames, cold.ix.DocNames) {
				t.Fatalf("compacted doc names diverge: got %v, cold %v", comp.ix.DocNames, cold.ix.DocNames)
			}
		})
	}
}

// TestPackedDeltaAppendConcurrentSearch pins the race contract of the
// in-place tail extension: a delta append grows the predecessor's backing
// arrays beyond their published lengths, and concurrent searches on any
// earlier generation must never observe it (run under -race by make
// dag-smoke). Readers hammer a fixed generation while a writer chains
// appends past it; every response must keep matching the oracle captured
// before the writer started.
func TestPackedDeltaAppendConcurrentSearch(t *testing.T) {
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	rng := rand.New(rand.NewSource(321))
	var docs []*Document
	for i := 0; i < 6; i++ {
		docs = append(docs, bagDoc(fmt.Sprintf("d%d", i), rng, words))
	}
	packed := packedSystem(t, docs...)

	queries := randomQueries(rng, vocab(packed), 12)
	want := make([]Response, len(queries))
	for i, q := range queries {
		r, err := packed.Search(q, 2)
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		want[i] = normResp(r)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, q := range queries {
					r, err := packed.Search(q, 2)
					if err != nil {
						errc <- fmt.Errorf("goroutine %d: Search(%q): %v", g, q, err)
						return
					}
					if !reflect.DeepEqual(normResp(r), want[i]) {
						errc <- fmt.Errorf("goroutine %d: Search(%q) diverged under concurrent append", g, q)
						return
					}
				}
			}
		}(g)
	}

	// Writer: chain delta appends from the generation the readers hold.
	sys := packed
	for i := 0; i < 12; i++ {
		next, _, err := sys.UpsertDocument(bagDoc(fmt.Sprintf("w%d", i), rng, words))
		if err != nil {
			t.Errorf("writer append %d: %v", i, err)
			break
		}
		sys = next
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := sys.ValidateIndex(); err != nil {
		t.Fatalf("final generation invalid: %v", err)
	}
	if sys.ix.PackDebt() == 0 {
		t.Fatal("writer appends did not take the delta path")
	}
	assertTableMatchesTree(t, sys, nil)
}

// TestPackedSearchConcurrent hammers one packed system from many
// goroutines (run under -race by make dag-smoke): packed serving is
// read-only and must be race-free, and every response must still match a
// cold rebuild's.
func TestPackedSearchConcurrent(t *testing.T) {
	docs := []*Document{
		datagen.DBLP(datagen.BibConfig{
			Config:      datagen.Config{Seed: 21, Scale: 2},
			DupFraction: 0.5,
		}),
		datagen.Mondial(datagen.Config{Seed: 8, Scale: 1}),
	}
	packed := packedSystem(t, docs...)
	cold := rebuild(t, liveDocs(packed), 4)

	kws := vocab(cold)
	rng := rand.New(rand.NewSource(55))
	queries := randomQueries(rng, kws, 24)
	type oracle struct {
		resp Response
		err  string
	}
	want := make([]oracle, len(queries))
	for i, q := range queries {
		r, err := cold.Search(q, 2)
		if err != nil {
			want[i] = oracle{err: err.Error()}
			continue
		}
		want[i] = oracle{resp: normResp(r)}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8*len(queries))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range queries {
				r, err := packed.Search(q, 2)
				switch {
				case err != nil && want[i].err == "":
					errc <- fmt.Errorf("goroutine %d: Search(%q): unexpected error %v", g, q, err)
				case err == nil && want[i].err != "":
					errc <- fmt.Errorf("goroutine %d: Search(%q): missing error %q", g, q, want[i].err)
				case err == nil && !reflect.DeepEqual(normResp(r), want[i].resp):
					errc <- fmt.Errorf("goroutine %d: Search(%q): response diverged", g, q)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
