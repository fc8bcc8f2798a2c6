package segment

import (
	"compress/flate"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// FuzzLoadSegment feeds arbitrary byte images through the full open path:
// OpenFile, the term directory walk and every posting fetch. The same
// bytes also go straight to index.DecodeMeta, seeded with the packed and
// flat meta sections, so mutations reach the meta decoder (node rows, the
// flat checks and the pack of flat records) instead of stopping at the
// meta checksum — a section with a valid checksum may still come from a
// buggy or hostile writer. The contract under fuzzing is absolute — a
// damaged or adversarial image either fails with the typed ErrCorrupt or
// yields postings that pass the reader's own validity re-check; it never
// panics, never over-allocates on a lying length field, and never returns
// out-of-range ordinals. A meta section that decodes must survive
// Validate, and one that validates must re-encode.
func FuzzLoadSegment(f *testing.F) {
	ix, err := index.BuildDocument(xmltree.BuildFigure2a(), index.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "seed.gks4")
	// Both meta variants are seeded: the packed node table the writer
	// emits, at several block sizes and levels, and the flat encoding of
	// a segment written before packing became the only node table.
	var images [][]byte
	for _, opts := range []WriterOptions{
		{}, {BlockSize: 256}, {BlockSize: 64}, {BlockSize: 256, Level: flate.BestCompression},
	} {
		if err := WriteFileOpts(seedPath, ix, opts); err != nil {
			f.Fatal(err)
		}
		good, err := os.ReadFile(seedPath)
		if err != nil {
			f.Fatal(err)
		}
		images = append(images, good)
	}
	flat, err := os.ReadFile(filepath.Join("testdata", "flat-meta.gks4"))
	if err != nil {
		f.Fatal(err)
	}
	images = append(images, flat)
	var metas [][]byte
	for _, img := range images {
		metas = append(metas, metaSection(f, img))
	}
	for _, good := range images {
		f.Add(good)
		// Seed targeted damage so the fuzzer starts at the interesting
		// boundaries: bit flips in the trailer, the footer and the first
		// posting block, plus truncations.
		for _, off := range []int{len(good) - 1, len(good) - 5, len(good) - 12, len(good) / 2, 5, len(good) - 40} {
			if off < 0 || off >= len(good) {
				continue
			}
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x40
			f.Add(bad)
		}
		f.Add(good[:len(good)/2])
		f.Add(good[:len(good)-1])
	}
	for _, meta := range metas {
		f.Add(meta)
		f.Add(meta[:len(meta)/2])
		flipped := append([]byte(nil), meta...)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte("GKS4"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeMeta(t, data)
		path := filepath.Join(t.TempDir(), "fuzz.gks4")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := OpenFile(path, Options{CacheBytes: 1 << 12})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenFile: non-corrupt error %v", err)
			}
			return
		}
		defer r.Close()
		st := r.Stats()
		_ = st
		nNodes := int32(r.Index().NodeCount())
		walkErr := r.ForEachTerm(func(term string, count int) error {
			list, err := r.Postings(term)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					return err
				}
				return nil
			}
			prev := int32(-1)
			for _, ord := range list {
				if ord <= prev || ord >= nNodes {
					t.Fatalf("Postings(%q) returned invalid ordinal %d (prev %d, nNodes %d)", term, ord, prev, nNodes)
				}
				prev = ord
			}
			return nil
		})
		if walkErr != nil && !errors.Is(walkErr, ErrCorrupt) {
			t.Fatalf("term walk: non-corrupt error %v", walkErr)
		}
	})
}

// checkDecodeMeta decodes meta as a GKS4 meta section and enforces the
// FuzzLoadSegment contract on the result.
func checkDecodeMeta(t *testing.T, meta []byte) {
	ix, err := index.DecodeMeta(meta)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeMeta: non-corrupt error %v", err)
		}
		return
	}
	if ix.Validate() == nil {
		if err := index.EncodeMeta(io.Discard, ix); err != nil {
			t.Fatalf("re-encode of decoded meta failed: %v", err)
		}
	}
}

// metaSection returns the meta bytes of a GKS4 image, located through
// its footer.
func metaSection(f *testing.F, img []byte) []byte {
	path := filepath.Join(f.TempDir(), "meta.gks4")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		f.Fatal(err)
	}
	fh, _, _, foot, err := openFooter(path)
	if err != nil {
		f.Fatal(err)
	}
	fh.Close()
	return img[foot.metaOff : foot.metaOff+foot.metaLen]
}
