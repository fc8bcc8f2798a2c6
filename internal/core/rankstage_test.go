package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// Tests of the rank stage: the score → sort → materialize split, the true
// rank bound, top-k exactness and the allocation profile of result
// materialization.

// TestSearchTopKRankAboveKeywordCount is the counterexample to pruning by
// rank(e) ≤ P|e. y's text holds two keywords and lifts, as an attribute,
// to its parent z; y is z's only child, so each keyword's terminal
// receives z's full potential 2 (rank 4). x holds three keywords spread
// over six children (five terminals × 3/6 = 2.5). A top-1 search that
// stops once no remaining candidate's keyword count beats the kept rank
// returns x; the right answer is z.
func TestSearchTopKRankAboveKeywordCount(t *testing.T) {
	x := xmltree.E("x",
		xmltree.ET("a", "apple"), xmltree.ET("b", "apple"),
		xmltree.ET("c", "pear"), xmltree.ET("d", "pear"),
		xmltree.ET("e", "plum"), xmltree.ET("f", "kiwi"))
	z := xmltree.E("z", xmltree.ET("y", "apple pear"))
	doc := xmltree.NewDocument("counter.xml", 0, xmltree.E("root", x, z))
	ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix)
	q := NewQuery("apple", "pear", "plum")
	full, err := eng.Search(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Results) != 2 {
		t.Fatalf("Search = %d results, want z and x", len(full.Results))
	}
	if top := full.Results[0]; top.Label != "z" || top.KeywordCount != 2 || top.Rank != 4 {
		t.Fatalf("Search top = %s (P|e=%d, rank %v), want z (2, 4)", top.Label, top.KeywordCount, top.Rank)
	}
	if second := full.Results[1]; second.Label != "x" || second.KeywordCount != 3 || second.Rank != 2.5 {
		t.Fatalf("Search second = %s (P|e=%d, rank %v), want x (3, 2.5)", second.Label, second.KeywordCount, second.Rank)
	}
	topk, err := eng.SearchTopK(q, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	truncated := *full
	truncated.Results = full.Results[:1]
	requireSameResponse(t, "top-1", topk, &truncated)
}

// TestPropertyTopKMultiWordLeaves checks SearchTopK against Search
// truncated to k — same ordinals, bit-identical ranks — on trees whose
// leaves hold two words, where ranks exceed keyword counts.
func TestPropertyTopKMultiWordLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	queries := []Query{NewQuery("apple", "pear"), NewQuery("apple", "pear", "plum")}
	for trial := 0; trial < 150; trial++ {
		doc := randomTreeWords(rng, trial%2 == 0, 2)
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(ix)
		for _, q := range queries {
			for s := 1; s <= q.Len(); s++ {
				full, err := eng.Search(q, s)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, 3, 5} {
					topk, err := eng.SearchTopK(q, s, k)
					if err != nil {
						t.Fatal(err)
					}
					truncated := *full
					if len(truncated.Results) > k {
						truncated.Results = truncated.Results[:k]
					}
					requireSameResponse(t, fmt.Sprintf("trial %d %s s=%d k=%d", trial, q, s, k), topk, &truncated)
				}
			}
		}
	}
}

// TestPropertyRankBoundMultiWordLeaves states the model's true bound:
// every keyword's terminals receive at most P|e between them, so
// 0 < rank(e) ≤ P|e². The bound is reached exactly by a node whose own
// text holds all of its keywords: each is a terminal at the node itself.
func TestPropertyRankBoundMultiWordLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	q := NewQuery("apple", "pear", "plum")
	saturated := 0
	for trial := 0; trial < 120; trial++ {
		doc := randomTreeWords(rng, trial%2 == 0, 2)
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(ix)
		lists := eng.PostingLists(q)
		for s := 1; s <= q.Len(); s++ {
			resp, err := eng.Search(q, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range resp.Results {
				p := float64(r.KeywordCount)
				if r.Rank <= 0 || r.Rank > p*p {
					t.Fatalf("trial %d s=%d: rank %v of %s outside (0, %v]", trial, s, r.Rank, r.ID, p*p)
				}
				ownText := true
				for kw, list := range lists {
					if r.Mask&(1<<kw) != 0 && !slices.Contains(list, r.Ord) {
						ownText = false
					}
				}
				if ownText {
					saturated++
					if r.Rank != p*p {
						t.Fatalf("trial %d s=%d: %s holds its %d keywords in its own text but ranks %v, want %v",
							trial, s, r.ID, r.KeywordCount, r.Rank, p*p)
					}
				}
			}
		}
	}
	if saturated == 0 {
		t.Fatal("no result held all of its keywords in its own text; the exact-bound check never ran")
	}
}

// TestSearchIDsMatchIDOf checks the materialized Dewey IDs, cut from one
// shared path buffer, against the index's own per-node IDOf across two
// documents.
func TestSearchIDsMatchIDOf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var repo xmltree.Repository
	repo.Add(randomTreeWords(rng, true, 2))
	repo.Add(randomTreeWords(rng, false, 2))
	ix, err := index.Build(&repo, index.Options{IndexElementNames: false})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix)
	resp, err := eng.Search(NewQuery("apple", "pear", "plum"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range resp.Results {
		want := ix.IDOf(r.Ord)
		if r.ID.Doc != want.Doc || dewey.Compare(r.ID, want) != 0 || len(r.ID.Path) != cap(r.ID.Path) {
			t.Fatalf("ord %d: ID %s (cap %d), want %s (len %d)", r.Ord, r.ID, cap(r.ID.Path), want, len(want.Path))
		}
	}
}

// TestResultPathsDoNotAlias appends to one result's ID path and checks
// that the next result's ID is untouched: the paths share one buffer, and
// only the full-slice cut keeps an append from writing into a neighbour.
func TestResultPathsDoNotAlias(t *testing.T) {
	eng := allocBenchEngine(t, 50)
	resp, err := eng.Search(NewQuery("alpha", "beta", "gamma"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) < 2 {
		t.Fatalf("%d results, want at least 2", len(resp.Results))
	}
	next := resp.Results[1].ID.String()
	first := resp.Results[0].ID
	first.Path = append(first.Path, 99, 98, 97)
	if got := resp.Results[1].ID.String(); got != next {
		t.Fatalf("appending to result 0's path changed result 1's ID from %s to %s", next, got)
	}
}

// TestSearchAllocsIndependentOfResults pins the allocations of a warmed
// Search in absolute terms: a query with about a hundred results and one
// with about two thousand must allocate the same small constant. Building
// result IDs one allocation each would add one allocation per result.
func TestSearchAllocsIndependentOfResults(t *testing.T) {
	q := NewQuery("alpha", "beta", "gamma")
	var allocs [2]float64
	for i, entities := range []int{100, 2000} {
		eng := allocBenchEngine(t, entities)
		resp, err := eng.Search(q, 2) // warm the arena pool
		if err != nil {
			t.Fatal(err)
		}
		if n := len(resp.Results); n < entities/2 || n > entities*2 {
			t.Fatalf("%d entities: %d results, want %d–%d", entities, n, entities/2, entities*2)
		}
		allocs[i] = testing.AllocsPerRun(20, func() {
			if _, err := eng.Search(q, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	if raceEnabled {
		// The race detector makes sync.Pool drop a quarter of its Puts, so
		// some runs rebuild the arena and the count varies. A per-result
		// allocation would still show: it adds at least 100 per run.
		if allocs[0] > 64 || allocs[1] > 64 {
			t.Errorf("warmed Search allocates %.0f/run (small) and %.0f/run (large) under -race, want ≤ 64", allocs[0], allocs[1])
		}
		return
	}
	if allocs[0] != allocs[1] || allocs[1] > 16 {
		t.Errorf("warmed Search allocates %.0f/run (small) and %.0f/run (large), want one constant ≤ 16", allocs[0], allocs[1])
	}
}
