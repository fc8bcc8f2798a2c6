package segment

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/index"
	"repro/internal/postings"
)

// WriterOptions tunes segment construction.
type WriterOptions struct {
	// BlockSize is the target uncompressed bytes per posting block;
	// non-positive means DefaultBlockSize. A single list larger than the
	// target gets a block of its own rather than being split.
	BlockSize int
	// Level is the flate compression level (flate.BestSpeed ..
	// flate.BestCompression); 0 means flate.BestSpeed. (flate's own zero,
	// NoCompression, is not useful here — pass flate.HuffmanOnly for the
	// cheapest real mode.)
	Level int
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.Level == 0 {
		o.Level = flate.BestSpeed
	}
	return o
}

// WriteFile writes ix to path as a GKS4 segment with default options,
// atomically (temp file + fsync + rename, like index.SaveFile).
func WriteFile(path string, ix *index.Index) error {
	return WriteFileOpts(path, ix, WriterOptions{})
}

// WriteFileOpts is WriteFile with explicit options.
func WriteFileOpts(path string, ix *index.Index, opts WriterOptions) error {
	return index.WriteFileAtomic(path, func(w io.Writer) error {
		return Write(w, ix, opts)
	})
}

// Write serializes ix as a GKS4 segment. The source may be eager (GKS3 in
// memory) or itself lazily backed by another segment — posting lists are
// streamed through ForEachKeywordSorted either way, so converting never
// needs the whole posting set resident at once (blocks are buffered until
// the final layout is known, but each raw list is transient).
func Write(w io.Writer, ix *index.Index, opts WriterOptions) error {
	opts = opts.withDefaults()
	ix = ix.Compacted()

	// Meta section: labels, document names and the packed node table,
	// stored raw (CRC-protected). It is decoded eagerly at every open, so
	// burning boot time inflating it would cancel the format's fast-boot
	// property; the posting blocks, which boot never touches, carry the
	// compression instead.
	var metaRaw bytes.Buffer
	if err := index.EncodeMeta(&metaRaw, ix); err != nil {
		return fmt.Errorf("segment: encode meta: %w", err)
	}
	meta := metaRaw.Bytes()

	// Pack whole terms into blocks of ~BlockSize uncompressed bytes.
	type termLoc struct {
		term  string
		block int
		off   int
		count int
	}
	var (
		terms   []termLoc
		blocksC [][]byte // compressed blocks
		blocksU []int    // their uncompressed lengths
		cur     bytes.Buffer
		scratch []byte
	)
	flushBlock := func() error {
		if cur.Len() == 0 {
			return nil
		}
		c, err := deflate(cur.Bytes(), opts.Level)
		if err != nil {
			return fmt.Errorf("segment: compress block %d: %w", len(blocksC), err)
		}
		blocksC = append(blocksC, c)
		blocksU = append(blocksU, cur.Len())
		cur.Reset()
		return nil
	}
	err := ix.ForEachKeywordSorted(func(kw string, list []int32) error {
		scratch = postings.Encode(scratch[:0], list)
		if cur.Len() > 0 && cur.Len()+len(scratch) > opts.BlockSize {
			if err := flushBlock(); err != nil {
				return err
			}
		}
		terms = append(terms, termLoc{kw, len(blocksC), cur.Len(), len(list)})
		cur.Write(scratch)
		return nil
	})
	if err != nil {
		return err
	}
	if err := flushBlock(); err != nil {
		return err
	}

	// Footer: stats, meta frame, block directory, prefix-compressed term
	// directory. Block offsets are derived (meta end + running compressed
	// lengths), so only lengths are stored.
	var f []byte
	for _, v := range ix.Stats.Fields() {
		f = binary.AppendUvarint(f, uint64(v))
	}
	metaOff := len(magic) + uvarintLen(formatVersion)
	f = binary.AppendUvarint(f, uint64(metaOff))
	f = binary.AppendUvarint(f, uint64(len(meta)))
	f = binary.AppendUvarint(f, uint64(crc32.ChecksumIEEE(meta)))
	f = binary.AppendUvarint(f, uint64(len(blocksC)))
	for i, c := range blocksC {
		f = binary.AppendUvarint(f, uint64(len(c)))
		f = binary.AppendUvarint(f, uint64(blocksU[i]))
		f = binary.AppendUvarint(f, uint64(crc32.ChecksumIEEE(c)))
	}
	f = binary.AppendUvarint(f, uint64(len(terms)))
	prev, prevBlock := "", 0
	for _, t := range terms {
		shared := sharedPrefix(prev, t.term)
		f = binary.AppendUvarint(f, uint64(shared))
		f = binary.AppendUvarint(f, uint64(len(t.term)-shared))
		f = append(f, t.term[shared:]...)
		f = binary.AppendUvarint(f, uint64(t.block-prevBlock))
		f = binary.AppendUvarint(f, uint64(t.off))
		f = binary.AppendUvarint(f, uint64(t.count))
		prev, prevBlock = t.term, t.block
	}

	bw := bufio.NewWriter(w)
	bw.WriteString(magic)
	var vbuf []byte
	vbuf = binary.AppendUvarint(vbuf, formatVersion)
	bw.Write(vbuf)
	bw.Write(meta)
	for _, c := range blocksC {
		bw.Write(c)
	}
	bw.Write(f)
	var tail [trailerSize]byte
	binary.LittleEndian.PutUint32(tail[0:4], uint32(len(f)))
	binary.LittleEndian.PutUint32(tail[4:8], crc32.ChecksumIEEE(f))
	copy(tail[8:12], trailerMagic)
	bw.Write(tail[:])
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("segment: write: %w", err)
	}
	return nil
}

// deflate compresses data with flate at the given level.
func deflate(data []byte, level int) ([]byte, error) {
	var b bytes.Buffer
	fw, err := flate.NewWriter(&b, level)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(data); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// sharedPrefix returns the length of the longest common prefix of a and b.
func sharedPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
