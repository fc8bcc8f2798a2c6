package core

import "context"

// Extensions beyond the paper's §4 pipeline: best-effort thresholding and
// top-k retrieval. Both build on the same candidate stages as Search and
// return paper-identical results.

// SearchBestEffort finds the largest threshold s for which R_Q(s) is
// non-empty and returns that response. By Lemma 2, non-emptiness is
// monotone in s (|R_Q(s1)| ≤ |R_Q(s2)| for s1 > s2), so a binary search
// over s ∈ [1, |Q|] locates the boundary in O(log |Q|) searches. This is
// "best-effort AND semantics": the engine honors as much of the query as
// the data supports, which is exactly how the paper motivates relaxing
// AND-semantics for imperfect queries (§1.1).
func (e *Engine) SearchBestEffort(q Query) (*Response, error) {
	return e.SearchBestEffortCtx(context.Background(), q)
}

// SearchBestEffortCtx is SearchBestEffort honoring ctx; each probe search
// of the binary scan is individually cancellable.
func (e *Engine) SearchBestEffortCtx(ctx context.Context, q Query) (*Response, error) {
	return BestEffort(ctx, q, func(ctx context.Context, s int) (*Response, error) {
		return e.SearchCtx(ctx, q, s)
	})
}

// BestEffort runs the best-effort threshold scan over any search function:
// it finds the largest s ∈ [1, |Q|] for which search(s) returns a
// non-empty response, by binary search (non-emptiness is monotone in s,
// Lemma 2). It is shared between the single-index engine and the sharded
// scatter-gather searcher so both implement identical best-effort
// semantics.
func BestEffort(ctx context.Context, q Query, search func(ctx context.Context, s int) (*Response, error)) (*Response, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	lo, hi := 1, q.Len() // invariant: R(lo) known non-empty or lo==1 untested
	best, err := search(ctx, lo)
	if err != nil {
		return nil, err
	}
	if len(best.Results) == 0 {
		return best, nil // nothing matches at all
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		resp, err := search(ctx, mid)
		if err != nil {
			return nil, err
		}
		if len(resp.Results) > 0 {
			lo, best = mid, resp
		} else {
			hi = mid - 1
		}
	}
	return best, nil
}

// SearchTopK returns the k highest-ranked response nodes for the query at
// threshold s — exactly the first k results of Search (k <= 0 returns them
// all). Every survivor is still scored: a rank can reach P|e² (each of the
// P|e keywords delivers up to P|e to its terminals), so a fewer-keyword
// candidate can outrank a many-keyword one and no cheap bound prunes
// soundly. The saving is in ordering and building only k results.
func (e *Engine) SearchTopK(q Query, s, k int) (*Response, error) {
	return e.SearchTopKCtx(context.Background(), q, s, k)
}

// SearchTopKCtx is SearchTopK honoring ctx.
func (e *Engine) SearchTopKCtx(ctx context.Context, q Query, s, k int) (*Response, error) {
	return e.search(ctx, q, s, k)
}
