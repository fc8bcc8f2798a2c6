package index

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dewey"
	"repro/internal/xmltree"
)

func TestBinaryRoundTrip(t *testing.T) {
	ix := buildFig2a(t)
	var buf bytes.Buffer
	if err := ix.writeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := decodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, ix, back)
}

// TestLoadRejectsRetiredFormats pins that the retired gob v1 and bare
// GKSI encodings — real images written before they were retired — fail
// with a typed ErrCorrupt that names the format, never a panic.
func TestLoadRejectsRetiredFormats(t *testing.T) {
	for file, name := range map[string]string{
		"retired-v1.gob":  "gob v1",
		"retired-v2.gksi": "bare GKSI",
	} {
		img, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		_, err = Load(bytes.NewReader(img))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: want ErrCorrupt naming %q, got %v", file, name, err)
		}
		_, err = LoadFile(filepath.Join("testdata", file))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), file) {
			t.Errorf("LoadFile(%s): want ErrCorrupt naming the file, got %v", file, err)
		}
	}
}

func TestBinaryRoundTripLargeDataset(t *testing.T) {
	doc := datagen.PaperDBLP(1)
	ix, err := BuildDocument(doc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.writeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := decodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, ix, back)
}

func TestBinaryLoadErrors(t *testing.T) {
	for _, img := range []string{"", "NOPE", "GKSI\x63"} {
		if _, err := decodeBinary([]byte(img)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("decodeBinary(%q) = %v, want ErrCorrupt", img, err)
		}
	}
	// Truncations at every prefix length must fail, not panic.
	ix := buildFig2a(t)
	var buf bytes.Buffer
	if err := ix.writeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, 20, 50, 100, len(full) / 2, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		if _, err := decodeBinary(full[:cut]); err == nil {
			t.Errorf("truncation at %d bytes must fail", cut)
		}
	}
}

func TestBinaryDeterministic(t *testing.T) {
	ix := buildFig2a(t)
	var a, b bytes.Buffer
	if err := ix.writeBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := ix.writeBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("binary serialization must be deterministic")
	}
}

// records materializes every node record of ix, tombstoned ones included.
func records(ix *Index) []nodeInfo {
	out := make([]nodeInfo, ix.NodeCount())
	for ord := range out {
		out[ord] = ix.packed.nodeInfo(int32(ord))
	}
	return out
}

// assertRecordsEqual compares two flat node tables field by field.
func assertRecordsEqual(t *testing.T, a, b []nodeInfo) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("node counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		na, nb := &a[i], &b[i]
		if !dewey.Equal(na.ID, nb.ID) || na.Label != nb.Label || na.Cat != nb.Cat ||
			na.ChildCount != nb.ChildCount || na.Subtree != nb.Subtree ||
			na.Parent != nb.Parent || na.HasValue != nb.HasValue || na.Value != nb.Value {
			t.Fatalf("node %d differs: %+v vs %+v", i, *na, *nb)
		}
	}
}

func assertIndexesEqual(t *testing.T, a, b *Index) {
	t.Helper()
	assertRecordsEqual(t, records(a), records(b))
	if len(a.Postings) != len(b.Postings) {
		t.Fatalf("posting keys differ: %d vs %d", len(a.Postings), len(b.Postings))
	}
	for k, la := range a.Postings {
		lb := b.Postings[k]
		if len(la) != len(lb) {
			t.Fatalf("postings %q differ in length", k)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("postings %q differ at %d", k, i)
			}
		}
	}
	if a.Stats != b.Stats {
		t.Errorf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if len(a.Labels) != len(b.Labels) || len(a.DocNames) != len(b.DocNames) {
		t.Error("label or doc tables differ")
	}
	// Lookup must work after load (labelIDs rebuilt).
	if la, lb := a.Lookup("karen"), b.Lookup("karen"); len(la) != len(lb) {
		t.Error("lookup differs after round trip")
	}
}

func TestMultiDocBinaryRoundTrip(t *testing.T) {
	var repo xmltree.Repository
	repo.Add(xmltree.BuildFigure2a())
	repo.Add(xmltree.BuildFigure1())
	ix, err := Build(&repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.writeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := decodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, ix, back)
}
