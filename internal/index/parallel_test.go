package index

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

func playsRepo(t *testing.T) *xmltree.Repository {
	t.Helper()
	return datagen.Plays(datagen.Config{Seed: 9, Scale: 3})
}

func TestBuildParallelEqualsSerial(t *testing.T) {
	repo := playsRepo(t)
	serial, err := Build(repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := BuildParallel(repo, DefaultOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, serial, parallel)
}

func TestBuildParallelSingleWorkerFallsBack(t *testing.T) {
	repo := playsRepo(t)
	ix, err := BuildParallel(repo, DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Stats.Documents != len(repo.Docs) {
		t.Errorf("documents = %d, want %d", ix.Stats.Documents, len(repo.Docs))
	}
}

func TestBuildParallelDefaultWorkers(t *testing.T) {
	repo := playsRepo(t)
	ix, err := BuildParallel(repo, DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Build(repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, serial, ix)
}

func TestBuildParallelErrors(t *testing.T) {
	if _, err := BuildParallel(nil, DefaultOptions(), 2); err == nil {
		t.Error("nil repository must fail")
	}
	bad := &xmltree.Repository{}
	bad.Add(xmltree.BuildFigure2a())
	bad.Docs = append(bad.Docs, &xmltree.Document{Name: "broken"})
	if _, err := BuildParallel(bad, DefaultOptions(), 2); err == nil {
		t.Error("broken document must fail")
	}
}

func TestBuildParallelSearchableAcrossDocs(t *testing.T) {
	repo := playsRepo(t)
	ix, err := BuildParallel(repo, DefaultOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Posting lists must stay strictly increasing and within bounds.
	for kw, list := range ix.Postings {
		for i, ord := range list {
			if i > 0 && list[i-1] >= ord {
				t.Fatalf("postings for %q not increasing after merge", kw)
			}
			if int(ord) >= ix.NodeCount() {
				t.Fatalf("posting out of bounds for %q", kw)
			}
		}
	}
	// Parent pointers must resolve within the merged table.
	for i := range int32(ix.NodeCount()) {
		p := ix.ParentOf(i)
		if p >= i || (p < 0 && len(ix.IDOf(i).Path) != 1) {
			t.Fatalf("node %d has bad parent %d", i, p)
		}
	}
}
