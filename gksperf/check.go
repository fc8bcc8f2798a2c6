package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"

	gks "repro"
)

// recordedAnswers holds, per corpus, the digest of the correctness
// sample's answers as recorded when the benchmark was created: a change to
// any answer fails the run instead of passing silently.
//
//go:embed testdata/answers.json
var recordedAnswers []byte

type searchAnswer struct {
	Total   int `json:"total"`
	SLSize  int `json:"slSize"`
	Results []struct {
		ID   string  `json:"id"`
		Rank float64 `json:"rank"`
	} `json:"results"`
}

type insightAnswer struct {
	Value  string   `json:"value"`
	Path   []string `json:"path"`
	Weight float64  `json:"weight"`
	Count  int      `json:"count"`
}

func getJSON(cl *http.Client, base, path string, v any) error {
	resp, err := cl.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// checkReads compares the served /search, /insights and /refine answers
// for the sample with the library's in-process answers over the same
// index file, then compares their digest with the recorded one.
func checkReads(cl *http.Client, base string, lib *gks.System, corpus string, sample []query) error {
	h := sha256.New()
	for _, q := range sample {
		want, err := lib.Search(q.q, q.s)
		if err != nil {
			return fmt.Errorf("library search %q: %w", q.q, err)
		}
		var got searchAnswer
		if err := getJSON(cl, base, readPath(opSearch, q), &got); err != nil {
			return err
		}
		if got.Total != len(want.Results) || got.SLSize != want.SLSize {
			return fmt.Errorf("search %q: served total %d |S_L| %d, library %d %d", q.q, got.Total, got.SLSize, len(want.Results), want.SLSize)
		}
		fmt.Fprintf(h, "%s|%d|%d|%d\n", q.q, q.s, got.Total, got.SLSize)
		for i, r := range want.Results {
			if i == 10 {
				break
			}
			if i >= len(got.Results) || got.Results[i].ID != r.ID.String() || got.Results[i].Rank != r.Rank {
				return fmt.Errorf("search %q: result %d differs from the library's %s", q.q, i, r.ID)
			}
			fmt.Fprintf(h, "%s:%s\n", r.ID, strconv.FormatFloat(r.Rank, 'g', -1, 64))
		}
		if len(got.Results) != min(10, len(want.Results)) {
			return fmt.Errorf("search %q: served %d rows", q.q, len(got.Results))
		}

		var ins struct {
			Insights []insightAnswer `json:"insights"`
		}
		if err := getJSON(cl, base, readPath(opInsights, q), &ins); err != nil {
			return err
		}
		var wantIns []insightAnswer
		for _, in := range lib.Insights(want, 5) {
			wantIns = append(wantIns, insightAnswer{Value: in.Value, Path: in.Path, Weight: in.Weight, Count: in.Count})
		}
		if !reflect.DeepEqual(ins.Insights, wantIns) {
			return fmt.Errorf("insights %q: served %v, library %v", q.q, ins.Insights, wantIns)
		}
		for _, in := range wantIns {
			fmt.Fprintf(h, "i %s %s %s %d\n", in.Value, strings.Join(in.Path, "/"), strconv.FormatFloat(in.Weight, 'g', -1, 64), in.Count)
		}

		var ref struct {
			Refinements []string `json:"refinements"`
		}
		if err := getJSON(cl, base, readPath(opRefine, q), &ref); err != nil {
			return err
		}
		var wantRef []string
		for _, rq := range lib.Refinements(want, 5) {
			wantRef = append(wantRef, rq.String())
		}
		if !reflect.DeepEqual(ref.Refinements, wantRef) {
			return fmt.Errorf("refine %q: served %v, library %v", q.q, ref.Refinements, wantRef)
		}
		fmt.Fprintf(h, "r %s\n", strings.Join(wantRef, "|"))
	}
	got := hex.EncodeToString(h.Sum(nil))
	var recorded map[string]string
	if err := json.Unmarshal(recordedAnswers, &recorded); err != nil {
		return fmt.Errorf("testdata/answers.json: %w", err)
	}
	if recorded[corpus] != got {
		return fmt.Errorf("answers digest for %s is %s, recorded %q", corpus, got, recorded[corpus])
	}
	return nil
}

// writeModel is what the served index must hold after the upserts.
type writeModel struct {
	docs   int               // live documents
	latest map[string]string // document name -> marker of its last version
	stale  []string          // markers of replaced versions
}

// buildModel replays the acknowledged upserts in WAL order. Every upsert
// must have been acknowledged: the state a failed one leaves is unknown.
func buildModel(baseDocs int, ops []op, rs []result) (writeModel, error) {
	type ack struct {
		lsn          uint64
		name, marker string
	}
	var acks []ack
	for i, o := range ops {
		if o.kind != opUpsert {
			continue
		}
		if !rs[i].ok {
			return writeModel{}, fmt.Errorf("upsert %s failed (status %d %s); the document set cannot be verified", o.name, rs[i].status, rs[i].err)
		}
		acks = append(acks, ack{rs[i].lsn, o.name, o.marker})
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].lsn < acks[j].lsn })
	m := writeModel{latest: map[string]string{}}
	for i, a := range acks {
		if i > 0 && a.lsn == acks[i-1].lsn {
			return writeModel{}, fmt.Errorf("two upserts acknowledged at LSN %d", a.lsn)
		}
		if old, ok := m.latest[a.name]; ok {
			m.stale = append(m.stale, old)
		}
		m.latest[a.name] = a.marker
	}
	m.docs = baseDocs + len(m.latest)
	return m, nil
}

// checkWrites verifies the served state against the model: the document
// count, every latest marker found, every replaced marker gone.
func checkWrites(cl *http.Client, base string, m writeModel) error {
	var st gks.IndexStats
	if err := getJSON(cl, base, "/stats", &st); err != nil {
		return err
	}
	if st.Documents != m.docs {
		return fmt.Errorf("/stats reports %d documents, model %d", st.Documents, m.docs)
	}
	hits := func(marker string) (int, error) {
		var a searchAnswer
		err := getJSON(cl, base, "/search?top=1&s=1&q="+url.QueryEscape(marker), &a)
		return a.Total, err
	}
	for name, marker := range m.latest {
		n, err := hits(marker)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("latest version of %s (marker %s) not found", name, marker)
		}
	}
	for _, marker := range m.stale {
		n, err := hits(marker)
		if err != nil {
			return err
		}
		if n != 0 {
			return fmt.Errorf("replaced version (marker %s) still found", marker)
		}
	}
	return nil
}
