package index

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/xmltree"
)

// BuildParallel indexes the repository with up to workers concurrent
// per-document builders and merges the partial indexes. The result is
// byte-for-byte identical to Build: documents are merged in repository
// order, so node ordinals, posting order and Dewey order all match the
// single-pass build. workers <= 1 falls back to the serial Build.
//
// The paper's index construction is a single sequential pass (§2.4);
// parallelism across documents is a production extension for multi-file
// repositories such as the Shakespeare plays or sharded DBLP dumps.
func BuildParallel(repo *xmltree.Repository, opts Options, workers int) (*Index, error) {
	if repo == nil || len(repo.Docs) == 0 {
		return nil, fmt.Errorf("index: empty repository")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(repo.Docs) == 1 {
		return Build(repo, opts)
	}

	partials := make([]*flatIndex, len(repo.Docs))
	errs := make([]error, len(repo.Docs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, doc := range repo.Docs {
		wg.Add(1)
		go func(i int, doc *xmltree.Document) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// A one-document repository keeps the document's existing Dewey
			// document number.
			single := &xmltree.Repository{Docs: []*xmltree.Document{doc}}
			partials[i], errs[i] = buildFlat(single, opts)
		}(i, doc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("index: document %d (%s): %w", i, repo.Docs[i].Name, err)
		}
	}
	return mergePartials(partials).pack(), nil
}

// mergePartials concatenates per-document flat indexes in order; the
// result's statistics are finalized.
func mergePartials(parts []*flatIndex) *flatIndex {
	out := &flatIndex{ix: &Index{
		Postings: make(map[string][]int32),
		labelIDs: make(map[string]int32),
	}}
	for _, part := range parts {
		p := part.ix
		base := int32(len(out.nodes))

		// Remap the partial's label table into the global one.
		labelMap := make([]int32, len(p.Labels))
		for i, l := range p.Labels {
			labelMap[i] = out.ix.labelID(l)
		}

		for _, n := range part.nodes {
			n.Label = labelMap[n.Label]
			if n.Parent >= 0 {
				n.Parent += base
			}
			out.nodes = append(out.nodes, n)
		}
		for key, list := range p.Postings {
			dst := out.ix.Postings[key]
			for _, ord := range list {
				dst = append(dst, ord+base)
			}
			out.ix.Postings[key] = dst
		}
		out.ix.DocNames = append(out.ix.DocNames, p.DocNames...)
		if p.Stats.MaxDepth > out.ix.Stats.MaxDepth {
			out.ix.Stats.MaxDepth = p.Stats.MaxDepth
		}
		out.ix.Stats.TextNodes += p.Stats.TextNodes
	}
	out.finalizeStats()
	return out
}
