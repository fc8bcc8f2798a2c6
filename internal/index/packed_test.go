package index

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// packedCorpora builds the corpora the packed-table tests sweep, in the
// builder's flat form: the paper's running examples, a repetitive
// replicated repository (whole documents dedup into instances) and
// low-repetition generator shapes. Each call builds fresh values, so
// callers may pack them.
func packedCorpora(t *testing.T) map[string]*flatIndex {
	t.Helper()
	build := func(repo *xmltree.Repository) *flatIndex {
		f, err := buildFlat(repo, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	multi := &xmltree.Repository{}
	multi.Add(xmltree.BuildFigure2a())
	multi.Add(xmltree.BuildFigure1())
	return map[string]*flatIndex{
		"fig2a":      build(datagen.Repo(xmltree.BuildFigure2a())),
		"multi":      build(multi),
		"replicated": build(replicatedRepo()),
		"dblp": build(datagen.Repo(datagen.DBLP(datagen.BibConfig{
			Config: datagen.Config{Seed: 11}, Entries: 150,
		}))),
		"dblp-dup": build(datagen.Repo(datagen.DBLP(datagen.BibConfig{
			Config: datagen.Config{Seed: 11}, Entries: 150, DupFraction: 0.6,
		}))),
		"mondial": build(datagen.Repo(datagen.Mondial(datagen.Config{Seed: 5}))),
	}
}

// replicatedRepo is four identical SigmodRecord replicas.
func replicatedRepo() *xmltree.Repository {
	return datagen.Replicate(func() *xmltree.Document {
		return datagen.SigmodRecord(datagen.BibConfig{Config: datagen.Config{Seed: 7}, Entries: 40})
	}, 4)
}

// assertAccessorsEqual compares every per-ordinal accessor of a packed
// index against the flat records the builder emitted for the same table.
func assertAccessorsEqual(t *testing.T, want []nodeInfo, packed *Index) {
	t.Helper()
	if len(want) != packed.NodeCount() {
		t.Fatalf("node counts differ: %d vs %d", len(want), packed.NodeCount())
	}
	for i := range want {
		n, ord := &want[i], int32(i)
		if a, b := n.Label, packed.LabelIDOf(ord); a != b {
			t.Fatalf("ord %d: label %d vs %d", ord, a, b)
		}
		if a, b := n.Cat, packed.CatOf(ord); a != b {
			t.Fatalf("ord %d: cat %v vs %v", ord, a, b)
		}
		if a, b := n.ChildCount, packed.ChildCountOf(ord); a != b {
			t.Fatalf("ord %d: child count %d vs %d", ord, a, b)
		}
		if a, b := n.Subtree, packed.SubtreeSizeOf(ord); a != b {
			t.Fatalf("ord %d: subtree %d vs %d", ord, a, b)
		}
		if a, b := n.Parent, packed.ParentOf(ord); a != b {
			t.Fatalf("ord %d: parent %d vs %d", ord, a, b)
		}
		if a, b := int32(n.ID.Depth()), packed.DepthOf(ord); a != b {
			t.Fatalf("ord %d: depth %d vs %d", ord, a, b)
		}
		if a, b := n.HasValue, packed.HasValueAt(ord); a != b {
			t.Fatalf("ord %d: has-value %v vs %v", ord, a, b)
		}
		if a, b := n.Value, packed.ValueAt(ord); a != b {
			t.Fatalf("ord %d: value %q vs %q", ord, a, b)
		}
		if a, b := n.ID, packed.IDOf(ord); !dewey.Equal(a, b) {
			t.Fatalf("ord %d: id %v vs %v", ord, a, b)
		}
		if a, b := n.ID.Doc, packed.DocOf(ord); a != b {
			t.Fatalf("ord %d: doc %d vs %d", ord, a, b)
		}
	}
}

// flatBytes is the heap footprint the flat records would take as a node
// table: the structs plus every Dewey path backing array and value string.
func flatBytes(nodes []nodeInfo) int64 {
	b := int64(len(nodes)) * int64(unsafe.Sizeof(nodeInfo{}))
	for i := range nodes {
		b += int64(len(nodes[i].ID.Path))*4 + int64(len(nodes[i].Value))
	}
	return b
}

func TestPackAccessorsMatchFlat(t *testing.T) {
	for name, f := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			packed := f.pack()
			if err := packed.Validate(); err != nil {
				t.Fatalf("packed index fails validation: %v", err)
			}
			assertAccessorsEqual(t, f.nodes, packed)

			info := packed.PackedInfo()
			t.Logf("%s: %d nodes → %d spine + %d instances of %d shapes (%d shape nodes), %d values (%d B); %d B vs flat %d B",
				name, info.Nodes, info.SpineNodes, info.Instances, info.Shapes, info.ShapeNodes,
				info.Values, info.ValueBytes, packed.NodeTableBytes(), flatBytes(f.nodes))
		})
	}
}

// TestPackUnpackedRoundTrip pins that the packed table loses nothing:
// materializing every record (the input of a repack) and flattening the
// whole index both give back exactly the builder's records.
func TestPackUnpackedRoundTrip(t *testing.T) {
	for name, f := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			packed := f.pack()
			assertRecordsEqual(t, f.nodes, records(packed))
			back := packed.flatten()
			assertRecordsEqual(t, f.nodes, back.nodes)
			assertIndexesEqual(t, packed, back.pack())
		})
	}
}

func TestPackIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := packedCorpora(t)["replicated"].pack().writeBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := packedCorpora(t)["replicated"].pack().writeBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("packing + serialization must be deterministic")
	}
}

func TestPackedOrdinalOf(t *testing.T) {
	f := packedCorpora(t)["replicated"]
	packed := f.pack()
	for ord := range int32(len(f.nodes)) {
		got, ok := packed.OrdinalOf(f.nodes[ord].ID)
		if !ok || got != ord {
			t.Fatalf("ord %d: OrdinalOf(%v) = %d, %v", ord, f.nodes[ord].ID, got, ok)
		}
	}
	// A Dewey ID that is not in the table must not be found.
	if _, ok := packed.OrdinalOf(dewey.ID{Doc: 9999, Path: []int32{1, 2, 3}}); ok {
		t.Fatal("absent id must not resolve")
	}
}

func TestPackedDedupsReplicatedDocs(t *testing.T) {
	// Four identical replicas: at least three document roots must collapse
	// into instances of the first replica's shape.
	f := packedCorpora(t)["replicated"]
	packed := f.pack()
	info := packed.PackedInfo()
	if info.Instances < 3 {
		t.Fatalf("expected ≥3 instances from 4 identical replicas, got %d", info.Instances)
	}
	if fb, pb := flatBytes(f.nodes), packed.NodeTableBytes(); pb*2 > fb {
		t.Errorf("replicated corpus should pack to <1/2 of flat: packed %d B vs flat %d B", pb, fb)
	}
}

func TestPackedBinaryRoundTrip(t *testing.T) {
	for name, f := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			packed := f.pack()
			var buf bytes.Buffer
			if err := packed.writeBinary(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := decodeBinary(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("loaded packed index fails validation: %v", err)
			}
			assertAccessorsEqual(t, f.nodes, back)
			assertIndexesEqual(t, packed, back)
		})
	}
}

func TestPackedSnapshotRoundTrip(t *testing.T) {
	f := packedCorpora(t)["dblp-dup"]
	var buf bytes.Buffer
	if err := f.pack().SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertAccessorsEqual(t, f.nodes, back)
}

func TestPackedMetaRoundTrip(t *testing.T) {
	for name, f := range packedCorpora(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := EncodeMeta(&buf, f.pack()); err != nil {
				t.Fatal(err)
			}
			back, err := DecodeMeta(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			assertAccessorsEqual(t, f.nodes, back)
		})
	}
}

// TestPackedCodecRejectsDamage feeds damaged GKSI images straight to the
// decoder — past the snapshot checksum that would otherwise catch them
// first — so the decoder's own checks are what is under test.
func TestPackedCodecRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := packedCorpora(t)["replicated"].pack().writeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Every truncation must fail typed as ErrCorrupt, never panic.
	for cut := 0; cut < len(full); cut += 1 + len(full)/257 {
		_, err := decodeBinary(full[:cut])
		if err == nil {
			t.Fatalf("truncation at %d bytes must fail", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d bytes: error not typed ErrCorrupt: %v", cut, err)
		}
	}
	// Bit flips must be caught by the decoder (typed ErrCorrupt) or by the
	// Validate pass every reload path runs before swapping an index in; a
	// flip inside a value string is legal data and passes both. No outcome
	// may panic.
	for pos := 0; pos < len(full); pos += 1 + len(full)/509 {
		for _, bit := range []byte{0x01, 0x80} {
			dam := append([]byte(nil), full...)
			dam[pos] ^= bit
			ix, err := decodeBinary(dam)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("bit flip at %d: error not typed ErrCorrupt: %v", pos, err)
				}
				continue
			}
			_ = ix.Validate() // either verdict is fine; must not panic
		}
	}
}

// TestPackedDeleteAndCompact checks a delete against the cold rebuild of
// the surviving documents: the tombstoned statistics match it, and the
// compacted table matches its records and byte-matches its pack.
func TestPackedDeleteAndCompact(t *testing.T) {
	repo := replicatedRepo()
	packed, err := Build(repo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	survivors := append([]*xmltree.Document{repo.Docs[0]}, repo.Docs[2:]...)
	cold, err := buildFlat(&xmltree.Repository{Docs: survivors}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	del, err := packed.DeleteDoc(repo.Docs[1].Name)
	if err != nil {
		t.Fatal(err)
	}
	if del.Stats != cold.ix.Stats {
		t.Fatalf("tombstoned stats differ from the cold rebuild: %+v vs %+v", del.Stats, cold.ix.Stats)
	}

	comp := del.Compacted()
	assertAccessorsEqual(t, cold.nodes, comp)
	coldIx := cold.pack()
	assertIndexesEqual(t, coldIx, comp)

	// The re-packed table must byte-match a cold rebuild's pack.
	var a, b bytes.Buffer
	if err := comp.writeBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := coldIx.writeBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("compacted re-pack must byte-match packing the cold rebuild")
	}
}

func TestPackedTextInterleavingNotMerged(t *testing.T) {
	// <a>text<b/></a> and <a><b/>text</a> have identical element
	// structure but different sibling Dewey components; their subtrees
	// must NOT share a shape. Build two such parents plus duplicates so
	// both shapes qualify for dedup.
	root := xmltree.E("r")
	for i := 0; i < 2; i++ {
		a1 := xmltree.E("a")
		a1.Append(xmltree.T("text before"))
		a1.Append(xmltree.E("b"))
		root.Append(a1)
		a2 := xmltree.E("a")
		a2.Append(xmltree.E("b"))
		a2.Append(xmltree.T("text before"))
		root.Append(a2)
	}
	doc := xmltree.NewDocument("interleave.xml", 0, root)
	f, err := buildFlat(datagen.Repo(doc), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	packed := f.pack()
	if err := packed.Validate(); err != nil {
		t.Fatal(err)
	}
	assertAccessorsEqual(t, f.nodes, packed)
}

func TestNodeTableBytesAccounting(t *testing.T) {
	f := packedCorpora(t)["dblp-dup"]
	packed := f.pack()
	fb, pb := flatBytes(f.nodes), packed.NodeTableBytes()
	if fb <= 0 || pb <= 0 {
		t.Fatalf("node table byte accounting must be positive: flat %d, packed %d", fb, pb)
	}
	if pb >= fb {
		t.Errorf("packed table (%d B) should be smaller than flat (%d B)", pb, fb)
	}
	t.Log(fmt.Sprintf("flat %d B, packed %d B (%.2fx)", fb, pb, float64(fb)/float64(pb)))
}
