package index

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/xmltree"
)

// FuzzLoad drives the loader with mutated snapshot images — the packed
// GKS3 snapshot written today, a flat GKS3 snapshot written before the
// packed table became the only node table, and the retired gob v1 and
// bare GKSI encodings — plus the GKSI payloads of the packed and flat
// snapshots and adversarial stubs. Every input is loaded twice: as is,
// and sealed in a GKS3 envelope with a correct checksum, so mutations
// reach the payload decoder (slice decoder, flat and packed node rows,
// the flat checks and the pack of flat records) instead of stopping at
// the CRC — a file with a valid checksum may still come from a buggy or
// hostile writer. The contract under fuzzing: Load returns an index or an
// ErrCorrupt-typed error — it never panics, and the bounded
// pre-allocation means a corrupt header cannot demand an unbounded slice
// (the harness would OOM). An input that happens to decode must also
// survive Validate and a re-save round trip without crashing.
func FuzzLoad(f *testing.F) {
	ix, err := BuildDocument(xmltree.BuildFigure2a(), DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	var snap, bin bytes.Buffer
	if err := ix.SaveSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	if err := ix.writeBinary(&bin); err != nil {
		f.Fatal(err)
	}
	images := [][]byte{snap.Bytes(), bin.Bytes()}
	for _, name := range []string{"flat-v2.gks3", "retired-v1.gob", "retired-v2.gksi"} {
		img, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		images = append(images, img)
		if name == "flat-v2.gks3" {
			images = append(images, snapshotPayload(f, img))
		}
	}
	for _, img := range images {
		f.Add(img)
	}
	f.Add([]byte{})
	f.Add([]byte(binaryMagic))
	f.Add([]byte(snapshotMagic))
	// Truncations and flips of each image seed the interesting paths.
	for _, img := range images {
		f.Add(img[:len(img)/2])
		f.Add(img[:min(len(img), 10)])
		flipped := bytes.Clone(img)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data)
		checkLoad(t, envelope(data))
	})
}

// checkLoad loads img and enforces the FuzzLoad contract.
func checkLoad(t *testing.T, img []byte) {
	got, err := Load(bytes.NewReader(img))
	if err != nil {
		if got != nil {
			t.Fatalf("Load returned both an index and an error: %v", err)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Load error not typed ErrCorrupt: %v", err)
		}
		return
	}
	if got == nil {
		t.Fatal("Load returned nil index without error")
	}
	// A structurally valid decode must also re-serialize cleanly.
	if got.Validate() == nil {
		var buf bytes.Buffer
		if err := got.SaveSnapshot(&buf); err != nil {
			t.Fatalf("re-save of loaded index failed: %v", err)
		}
	}
}

// snapshotPayload returns the GKSI payload of a GKS3 image: the bytes
// between the length-framed header and the trailing checksum.
func snapshotPayload(f *testing.F, img []byte) []byte {
	start := len(snapshotMagic) + 1 + int(img[len(snapshotMagic)])
	payload := img[start : len(img)-4]
	if string(payload[:len(binaryMagic)]) != binaryMagic {
		f.Fatalf("payload starts with %q, want %q", payload[:len(binaryMagic)], binaryMagic)
	}
	return payload
}
