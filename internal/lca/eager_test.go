package lca

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/xmltree"
)

func TestEagerMatchesWindowOnFixtures(t *testing.T) {
	ix, eng := fig1(t)
	queries := [][]string{
		{"alpha", "beta", "gamma"},
		{"alpha", "beta", "epsilon"},
		{"alpha", "beta", "gamma", "delta"},
		{"alpha"},
		{"delta", "gamma"},
	}
	for _, terms := range queries {
		lists := eng.PostingLists(core.NewQuery(terms...))
		assertSameOrds(t, terms, SLCA(ix, lists), SLCAIndexedLookupEager(ix, lists))
	}

	ix2, eng2 := fig2a(t)
	queries2 := [][]string{
		{"karen", "mike", "john"},
		{"karen", "julie"},
		{"student", "karen"},
		{"databases", "serena"},
		{"karen", "nosuchword"},
	}
	for _, terms := range queries2 {
		lists := eng2.PostingLists(core.NewQuery(terms...))
		assertSameOrds(t, terms, SLCA(ix2, lists), SLCAIndexedLookupEager(ix2, lists))
	}
}

func TestEagerMatchesWindowOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	words := []string{"w0", "w1", "w2", "w3"}
	for trial := 0; trial < 80; trial++ {
		var build func(depth int) *xmltree.Node
		build = func(depth int) *xmltree.Node {
			n := xmltree.E("n")
			if depth >= 5 || rng.Intn(3) == 0 {
				n.Append(xmltree.T(words[rng.Intn(len(words))]))
				return n
			}
			for i := 0; i < 1+rng.Intn(3); i++ {
				n.Append(build(depth + 1))
			}
			return n
		}
		doc := xmltree.NewDocument("rand", 0, build(0))
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(ix)
		for _, terms := range [][]string{{"w0", "w1"}, {"w0", "w1", "w2"}, {"w3"}} {
			lists := eng.PostingLists(core.NewQuery(terms...))
			assertSameOrds(t, terms, SLCA(ix, lists), SLCAIndexedLookupEager(ix, lists))
		}
	}
}

func TestEagerOnPaperWorkload(t *testing.T) {
	doc := datagen.PaperDBLP(1)
	ix, err := index.BuildDocument(doc, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ix)
	for _, pq := range datagen.PaperQueries() {
		if pq.Dataset != "dblp" {
			continue
		}
		lists := eng.PostingLists(core.NewQuery(pq.Terms...))
		assertSameOrds(t, []string{pq.ID}, SLCA(ix, lists), SLCAIndexedLookupEager(ix, lists))
	}
}

func TestEagerEmptyInputs(t *testing.T) {
	ix, _ := fig1(t)
	if got := SLCAIndexedLookupEager(ix, nil); got != nil {
		t.Errorf("nil lists: %v", got)
	}
	if got := SLCAIndexedLookupEager(ix, [][]int32{{}, {1}}); got != nil {
		t.Errorf("empty list: %v", got)
	}
}

func assertSameOrds(t *testing.T, label []string, a, b []int32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%v: window SLCA = %v, eager = %v", label, a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%v: window SLCA = %v, eager = %v", label, a, b)
		}
	}
}

func TestFSLCAForType(t *testing.T) {
	ix, eng := fig2a(t)
	// {karen, harry}: harry occurs nowhere, so it is forgiven; every
	// Course containing karen is an FSLCA answer.
	lists := eng.PostingLists(core.NewQuery("karen", "harry"))
	nodes, forgiven := FSLCAForType(ix, lists, "Course")
	if len(forgiven) != 1 || forgiven[0] != 1 {
		t.Errorf("forgiven = %v, want [1] (harry)", forgiven)
	}
	if len(nodes) != 3 {
		t.Errorf("FSLCA nodes = %d, want 3 karen courses", len(nodes))
	}
	for _, o := range nodes {
		if ix.LabelOf(o) != "Course" {
			t.Errorf("node %s has label %s", ix.IDOf(o), ix.LabelOf(o))
		}
	}
	// Plain AND within the type: {karen, mike} → 2 courses.
	lists = eng.PostingLists(core.NewQuery("karen", "mike"))
	nodes, forgiven = FSLCAForType(ix, lists, "Course")
	if len(forgiven) != 0 || len(nodes) != 2 {
		t.Errorf("karen+mike: nodes=%d forgiven=%v", len(nodes), forgiven)
	}
	// Unknown target type.
	if nodes, _ := FSLCAForType(ix, lists, "NoSuchType"); nodes != nil {
		t.Errorf("unknown type: %v", nodes)
	}
	// All keywords forgiven: empty answer.
	lists = eng.PostingLists(core.NewQuery("zeta", "theta"))
	nodes, forgiven = FSLCAForType(ix, lists, "Course")
	if len(nodes) != 0 || len(forgiven) != 2 {
		t.Errorf("all-forgiven: nodes=%d forgiven=%v", len(nodes), forgiven)
	}
}
