package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrSkimUnsupported reports that a file is not in a format whose
// statistics can be skimmed without decoding the index (i.e. not a GKS3
// snapshot); callers fall back to a full load.
var ErrSkimUnsupported = errors.New("index: stats skim unsupported for this format")

// SkimSnapshotStats returns the statistics of a GKS3 snapshot without
// building the index: the GKSI payload is scanned once — strings discarded,
// posting deltas skipped — while the CRC is accumulated, so the whole
// file is still integrity-checked but no node table or posting map is
// ever allocated. This is what `gks stats` uses: O(1) memory instead of a
// full decode. A non-GKS3 file fails with ErrSkimUnsupported; a damaged
// GKS3 file fails with ErrCorrupt naming nothing (the caller adds the
// path, as with LoadFile).
func SkimSnapshotStats(path string) (Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return Stats{}, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	st, err := skimSnapshotStats(bufio.NewReader(f))
	if err != nil && errors.Is(err, ErrCorrupt) {
		return Stats{}, fmt.Errorf("index: snapshot %s: %w", path, err)
	}
	return st, err
}

func skimSnapshotStats(br *bufio.Reader) (Stats, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Stats{}, ErrSkimUnsupported
	}
	if string(magic[:]) != snapshotMagic {
		return Stats{}, ErrSkimUnsupported
	}

	hdr, payloadLen, err := readSnapshotHeader(br)
	if err != nil {
		return Stats{}, err
	}

	// Skim the payload through the CRC: everything up to the trailing
	// stats is skipped field by field, never materialized.
	crc := crc32.NewIEEE()
	crc.Write(hdr)
	pr := bufio.NewReader(io.TeeReader(io.LimitReader(br, int64(payloadLen)), crc))
	st, err := skimBinaryStats(pr)
	if err != nil {
		return Stats{}, err
	}
	// Whatever trails the stats (nothing, in a well-formed image) still
	// belongs to the checksummed payload.
	if _, err := io.Copy(io.Discard, pr); err != nil {
		return Stats{}, corruptf("snapshot payload: %v", err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return Stats{}, corruptf("snapshot checksum: %v", err)
	}
	if got, want := binary.LittleEndian.Uint32(tail[:]), crc.Sum32(); got != want {
		return Stats{}, corruptf("snapshot checksum mismatch: stored %08x, computed %08x", got, want)
	}
	return st, nil
}

// skimBinaryStats walks a GKSI image of either version, discarding
// everything except the trailing statistics.
func skimBinaryStats(br *bufio.Reader) (Stats, error) {
	var st Stats
	bad := func(what string, err error) (Stats, error) {
		if errors.Is(err, ErrCorrupt) {
			return Stats{}, err
		}
		return Stats{}, corruptf("stats skim: %s: %v", what, err)
	}
	uv := func() (uint64, error) { return binary.ReadUvarint(br) }
	skipString := func() error {
		n, err := uv()
		if err != nil {
			return err
		}
		if n > 1<<28 {
			return corruptf("stats skim: implausible string length %d", n)
		}
		_, err = br.Discard(int(n))
		return err
	}
	skipUvarints := func(n uint64) error {
		for i := uint64(0); i < n; i++ {
			if _, err := uv(); err != nil {
				return err
			}
		}
		return nil
	}

	// count reads an element count; every element takes at least a byte,
	// and counts are int32-bounded.
	count := func(what string) (uint64, error) {
		n, err := uv()
		if err != nil {
			return 0, err
		}
		if n > 1<<31 {
			return 0, corruptf("stats skim: implausible %s %d", what, n)
		}
		return n, nil
	}
	// skipRecords skips n node records of one uvarint, a category byte and
	// rest more uvarints each — the spine and shape layout of writeMeta.
	skipRecords := func(what string, rest uint64) error {
		n, err := count(what)
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			if _, err := uv(); err != nil {
				return err
			}
			if _, err := br.Discard(1); err != nil {
				return err
			}
			if err := skipUvarints(rest); err != nil {
				return err
			}
		}
		return nil
	}
	skipPackedNodes := func() error {
		if _, err := uv(); err != nil { // node count
			return err
		}
		if err := skipRecords("spine count", 6); err != nil {
			return err
		}
		nInst, err := count("instance count")
		if err != nil {
			return err
		}
		if err := skipUvarints(5 * nInst); err != nil {
			return err
		}
		nShapes, err := count("shape count")
		if err != nil {
			return err
		}
		for s := uint64(0); s < nShapes; s++ {
			if err := skipRecords("shape size", 6); err != nil {
				return err
			}
		}
		nVals, err := count("value count")
		if err != nil {
			return err
		}
		arena, err := count("value arena length")
		if err != nil {
			return err
		}
		if _, err := br.Discard(int(arena)); err != nil {
			return err
		}
		if err := skipUvarints(nVals); err != nil {
			return err
		}
		nRoots, err := count("document root count")
		if err != nil {
			return err
		}
		return skipUvarints(2 * nRoots)
	}
	skipFlatNodes := func() error {
		nNodes, err := count("node count")
		if err != nil {
			return err
		}
		for i := uint64(0); i < nNodes; i++ {
			// dewey: doc + path length + path components.
			if _, err := uv(); err != nil {
				return err
			}
			plen, err := uv()
			if err != nil {
				return err
			}
			if plen > 1<<20 {
				return corruptf("stats skim: implausible path length %d", plen)
			}
			if err := skipUvarints(plen + 1); err != nil { // path + label
				return err
			}
			if _, err := br.Discard(1); err != nil { // category
				return err
			}
			if err := skipUvarints(3); err != nil { // childCount subtree parent
				return err
			}
			hv, err := br.ReadByte()
			if err != nil {
				return err
			}
			if hv == 1 {
				if err := skipString(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return bad("magic", err)
	}
	if string(magic[:]) != binaryMagic {
		return Stats{}, corruptf("stats skim: payload magic %q", magic)
	}
	version, err := uv()
	if err != nil {
		return bad("version", err)
	}
	if version != binaryVersionFlat && version != binaryVersionPacked {
		return Stats{}, corruptf("stats skim: unsupported version %d", version)
	}

	for _, section := range []string{"label", "doc"} {
		n, err := count(section + " count")
		if err != nil {
			return bad(section+" count", err)
		}
		for i := uint64(0); i < n; i++ {
			if err := skipString(); err != nil {
				return bad(section, err)
			}
		}
	}

	if version == binaryVersionPacked {
		if err := skipPackedNodes(); err != nil {
			return bad("packed node table", err)
		}
	} else if err := skipFlatNodes(); err != nil {
		return bad("node table", err)
	}

	nKeys, err := uv()
	if err != nil {
		return bad("keyword count", err)
	}
	if nKeys > 1<<31 {
		return Stats{}, corruptf("stats skim: implausible keyword count %d", nKeys)
	}
	for i := uint64(0); i < nKeys; i++ {
		if err := skipString(); err != nil {
			return bad("keyword", err)
		}
		n, err := uv()
		if err != nil {
			return bad("posting count", err)
		}
		if n > 1<<31 {
			return Stats{}, corruptf("stats skim: implausible posting count %d", n)
		}
		if err := skipUvarints(n); err != nil {
			return bad("postings", err)
		}
	}

	vals := make([]int, statsFieldCount)
	for i := range vals {
		v, err := uv()
		if err != nil {
			return bad("stats", err)
		}
		vals[i] = int(v)
	}
	st.setFields(vals)
	return st, nil
}
