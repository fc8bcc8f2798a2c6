package index

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// Load reads an index written by SaveSnapshot (the checksummed GKS3
// format). The CRC32 is verified before anything is decoded, and damaged
// input fails with an ErrCorrupt-wrapped error. The retired formats — gob
// v1 and bare GKSI streams without the GKS3 envelope — fail the same way,
// with an error that names them.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	magic, _ := br.Peek(len(snapshotMagic))
	switch string(magic) {
	case snapshotMagic:
		br.Discard(len(snapshotMagic))
		return loadSnapshotAfterMagic(br)
	case binaryMagic:
		return nil, corruptf("bare GKSI stream: this retired format no longer loads; convert it to a GKS3 snapshot with an older release")
	}
	return nil, corruptf("not a GKS3 snapshot (the retired gob v1 format no longer loads; convert it to GKS3 with an older release)")
}

// SaveFile writes the index to path in the checksummed snapshot format
// (v3), atomically: the bytes go to a temp file in the same directory which
// is fsynced and renamed over path, so a crash, full disk, or failed write
// mid-save never destroys a previous snapshot at path.
func (ix *Index) SaveFile(path string) error {
	return WriteFileAtomic(path, ix.SaveSnapshot)
}

// LoadFile reads a GKS3 snapshot from path (see Load). Decode failures
// are wrapped with ErrCorrupt and the file name, so startup and reload
// paths surface "which snapshot is bad" rather than a raw varint error.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	ix, err := Load(f)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return nil, fmt.Errorf("index: snapshot %s: %w", path, err)
		}
		return nil, fmt.Errorf("index: snapshot %s: %w (%v)", path, ErrCorrupt, err)
	}
	return ix, nil
}

// SizeBytes returns the size of the serialized index — the "Index Size"
// column of Table 4 — as written by SaveSnapshot. The snapshot writer
// streams lazy postings straight from their source, so this never
// materializes a segment-backed index.
func (ix *Index) SizeBytes() (int64, error) {
	var cw countWriter
	if err := ix.SaveSnapshot(&cw); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
