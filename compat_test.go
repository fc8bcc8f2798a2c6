package gks

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// The fixtures below were written before the packed node table became the
// only one: a GKS3 snapshot whose payload carries flat (version 2) node
// records, and a GKS4 segment whose meta section is flat. Both hold
// Figure 2(a) (doc 0) and two identical 12-entry SigmodRecord replicas
// (docs 2 and 3); doc 1, Figure 1, was deleted before saving, so the
// document numbers are sparse and the label table keeps labels only the
// deleted document used.
var flatFixtures = []string{
	filepath.Join("internal", "index", "testdata", "flat-v2.gks3"),
	filepath.Join("internal", "segment", "testdata", "flat-meta.gks4"),
}

// flatFixtureCorpus rebuilds the fixtures' documents from scratch.
func flatFixtureCorpus(t *testing.T) *System {
	t.Helper()
	repo := &xmltree.Repository{}
	repo.Add(xmltree.BuildFigure2a())
	repo.Add(xmltree.BuildFigure1())
	for i := 0; i < 2; i++ {
		d := datagen.SigmodRecord(datagen.BibConfig{Config: datagen.Config{Seed: 7}, Entries: 12})
		d.Name = fmt.Sprintf("%s#%d", d.Name, i)
		repo.Add(d)
	}
	return rebuild(t, append(repo.Docs[:1], repo.Docs[2:]...), 1)
}

// TestFlatFixturesLoad pins compatibility with files written in the flat
// encodings: both load, pass validation, and answer a fixed query set —
// searches, insights, refinements, SLCA and ELCA — exactly like a fresh
// build of the same documents; a GKS3 re-save of the loaded index answers
// the same way.
func TestFlatFixturesLoad(t *testing.T) {
	fresh := flatFixtureCorpus(t)
	queries := append([]string{"karen", "course student", "sigmod record", "article author"},
		randomQueries(rand.New(rand.NewSource(5)), vocab(fresh), 30)...)
	for _, path := range flatFixtures {
		t.Run(filepath.Base(path), func(t *testing.T) {
			loaded, err := LoadIndexFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.CloseIndex()
			if err := loaded.ValidateIndex(); err != nil {
				t.Fatal(err)
			}
			if got, want := loaded.Stats(), fresh.Stats(); got != want {
				t.Fatalf("stats %+v, want %+v", got, want)
			}
			resaved := filepath.Join(t.TempDir(), "resaved.gksidx")
			if err := loaded.SaveIndexFile(resaved); err != nil {
				t.Fatal(err)
			}
			again, err := LoadIndexFile(resaved)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				for _, s := range []int{1, 2} {
					diffSearchSurface(t, fresh, loaded, q, s)
					diffSearchSurface(t, fresh, again, q, s)
				}
			}
		})
	}
}
