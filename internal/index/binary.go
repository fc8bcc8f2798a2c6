package index

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/dewey"
	"repro/internal/postings"
)

// Binary index image ("GKSI"): the payload of a GKS3 snapshot
// (snapshot.go). Posting lists are stored delta-varint compressed
// (internal/postings).
//
// Layout (all integers unsigned varints unless noted):
//
//	magic "GKSI" | version
//	labels:   count, then len+bytes each
//	docs:     count, then len+bytes each
//	nodes:    version 3: the packed node arrays (writeMeta)
//	          version 2: count, then per node the flat record:
//	            dewey(binary codec) label cat(byte) childCount subtree
//	            parent+1 hasValue(byte) [valueLen valueBytes]
//	postings: count, then per keyword:
//	            keyLen keyBytes n deltaVarints...
//	stats:    fixed sequence of varints
//
// Only version 3 is written. Version 2 images — every GKS3 file written
// before the packed table became the only node table — still load: the
// flat records are structurally checked and packed on the way in.
const binaryMagic = "GKSI"

const (
	binaryVersionFlat   = 2
	binaryVersionPacked = 3
)

// binWriter bundles the buffered writer and varint scratch the binary
// encoders share.
type binWriter struct {
	bw      *bufio.Writer
	scratch []byte
}

func (w *binWriter) uvarint(v uint64) {
	w.scratch = binary.AppendUvarint(w.scratch[:0], v)
	w.bw.Write(w.scratch)
}

func (w *binWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.bw.WriteString(s)
}

// writeMeta writes the labels/docs sections followed by the packed node
// arrays — the part of the format shared between the snapshot payload and
// the GKS4 segment meta section. Negative-capable fields are stored +1 so plain uvarints
// suffice. The per-ordinal dispatch array is NOT written: instance ranges
// plus the rule that spine slots are assigned in ascending ordinal order
// (which is how packNodes emits them) reconstruct it exactly.
func (w *binWriter) writeMeta(ix *Index) {
	p := ix.packed
	w.uvarint(uint64(len(ix.Labels)))
	for _, l := range ix.Labels {
		w.str(l)
	}
	w.uvarint(uint64(len(ix.DocNames)))
	for _, d := range ix.DocNames {
		w.str(d)
	}

	w.uvarint(uint64(len(p.ordInst)))

	w.uvarint(uint64(len(p.spLabel)))
	for i := range p.spLabel {
		w.uvarint(uint64(p.spLabel[i]))
		w.bw.WriteByte(p.spCat[i])
		w.uvarint(uint64(p.spChild[i]))
		w.uvarint(uint64(p.spSubtree[i]))
		w.uvarint(uint64(p.spParent[i] + 1))
		w.uvarint(uint64(uint32(p.spLast[i])))
		w.uvarint(uint64(p.spDepth[i]))
		w.uvarint(uint64(p.spVal[i] + 1))
	}

	w.uvarint(uint64(len(p.inStart)))
	for i := range p.inStart {
		w.uvarint(uint64(p.inStart[i]))
		w.uvarint(uint64(p.inShape[i]))
		w.uvarint(uint64(p.inParent[i] + 1))
		w.uvarint(uint64(uint32(p.inLast[i])))
		w.uvarint(uint64(p.inDepth[i]))
	}

	w.uvarint(uint64(len(p.shOff) - 1))
	for s := 0; s+1 < len(p.shOff); s++ {
		base, end := p.shOff[s], p.shOff[s+1]
		w.uvarint(uint64(end - base))
		for k := base; k < end; k++ {
			w.uvarint(uint64(p.shLabel[k]))
			w.bw.WriteByte(p.shCat[k])
			w.uvarint(uint64(p.shChild[k]))
			w.uvarint(uint64(p.shSubtree[k]))
			w.uvarint(uint64(p.shParent[k] + 1))
			w.uvarint(uint64(uint32(p.shLast[k])))
			w.uvarint(uint64(p.shDepth[k]))
			w.uvarint(uint64(p.shVal[k] + 1))
		}
	}

	w.uvarint(uint64(len(p.valOff) - 1))
	w.uvarint(uint64(len(p.valArena)))
	w.bw.Write(p.valArena)
	for v := 0; v+1 < len(p.valOff); v++ {
		w.uvarint(uint64(p.valOff[v+1] - p.valOff[v]))
	}

	w.uvarint(uint64(len(p.docStart)))
	for k := range p.docStart {
		w.uvarint(uint64(p.docStart[k]))
		w.uvarint(uint64(uint32(p.docNum[k])))
	}
}

// metaPackedVersion follows the leading 0 of a packed GKS4 meta section.
// A flat section (written before the packed table became the only node
// table) starts with the label count, which is at least 1 on any
// buildable index, so a leading 0 byte can only mean "packed follows".
const metaPackedVersion = 1

// EncodeMeta writes the labels, document names and packed node table
// without magic framing: a 0 sentinel, the packed-meta version and the
// packed arrays. This is the GKS4 segment meta section
// (internal/segment); DecodeMeta is its inverse. A tombstoned index must
// be compacted by the caller first.
func EncodeMeta(w io.Writer, ix *Index) error {
	bw := &binWriter{bw: bufio.NewWriter(w)}
	bw.uvarint(0)
	bw.uvarint(metaPackedVersion)
	bw.writeMeta(ix)
	return bw.bw.Flush()
}

// writeBinary writes the GKSI image — the GKS3 snapshot payload. A
// tombstoned index is compacted first — the on-disk formats have no
// notion of a delete mask — and a lazily-backed index streams its lists
// from the source one at a time, so serializing never materializes the
// postings.
func (ix *Index) writeBinary(w io.Writer) error {
	ix = ix.Compacted()
	bw := &binWriter{bw: bufio.NewWriter(w)}

	bw.bw.WriteString(binaryMagic)
	bw.uvarint(binaryVersionPacked)
	bw.writeMeta(ix)

	// Keywords are written sorted so the format is deterministic. A
	// separate buffer keeps list encoding off bw.scratch, which the
	// uvarint helper reuses.
	var encBuf []byte
	bw.uvarint(uint64(ix.keywordCount()))
	err := ix.ForEachKeywordSorted(func(k string, list []int32) error {
		bw.str(k)
		bw.uvarint(uint64(len(list)))
		encBuf = postings.Encode(encBuf[:0], list)
		bw.bw.Write(encBuf)
		return nil
	})
	if err != nil {
		return err
	}

	for _, v := range ix.Stats.fields() {
		bw.uvarint(uint64(v))
	}
	return bw.bw.Flush()
}

// fields flattens Stats for serialization; order is part of the format.
func (s *Stats) fields() []int {
	return []int{
		s.Documents, s.ElementNodes, s.TextNodes, s.AttributeNodes,
		s.RepeatingNodes, s.EntityNodes, s.ConnectingNodes,
		s.DistinctKeywords, s.PostingEntries, s.MaxDepth,
	}
}

func (s *Stats) setFields(v []int) {
	s.Documents, s.ElementNodes, s.TextNodes, s.AttributeNodes,
		s.RepeatingNodes, s.EntityNodes, s.ConnectingNodes,
		s.DistinctKeywords, s.PostingEntries, s.MaxDepth =
		v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9]
}

const statsFieldCount = 10

// decodeBinary decodes a complete GKSI image (a verified snapshot
// payload).
func decodeBinary(img []byte) (*Index, error) {
	d := newDecoder(img)
	magic, err := d.bytes("magic", uint64(len(binaryMagic)))
	if err != nil || string(magic) != binaryMagic {
		return nil, corruptf("binary load: payload does not start with %q", binaryMagic)
	}
	version, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	ix := &Index{Postings: make(map[string][]int32), labelIDs: make(map[string]int32)}
	switch version {
	case binaryVersionFlat:
		err = d.flatMeta(ix)
	case binaryVersionPacked:
		err = d.packedMeta(ix)
	default:
		err = corruptf("binary load: unsupported version %d", version)
	}
	if err != nil {
		return nil, err
	}

	nKeys, err := d.count("keyword count", 1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nKeys; i++ {
		key, err := d.str("keyword")
		if err != nil {
			return nil, err
		}
		n, err := d.count("posting count", 1)
		if err != nil {
			return nil, err
		}
		list := make([]int32, 0, min(n, preallocCap))
		prev := int32(-1)
		for j := 0; j < n; j++ {
			delta, err := d.uvarint("posting delta")
			if err != nil {
				return nil, err
			}
			// A zero delta would decode a duplicate ordinal — lists are
			// strictly increasing by invariant, and the save-path codec
			// enforces it, so accepting one here would plant a panic in a
			// later save.
			if delta == 0 {
				return nil, corruptf("binary load: keyword %q: zero posting delta", key)
			}
			prev += int32(delta)
			list = append(list, prev)
		}
		ix.Postings[key] = list
	}

	vals := make([]int, statsFieldCount)
	for i := range vals {
		v, err := d.uvarint("stats")
		if err != nil {
			return nil, err
		}
		vals[i] = int(v)
	}
	ix.Stats.setFields(vals)
	return ix, nil
}

// DecodeMeta reads a GKS4 meta section into a fresh Index with no posting
// lists and zero statistics — the skeleton internal/segment hands to
// NewLazy. The packed variant EncodeMeta writes and the flat variant of
// older segments are told apart by the leading sentinel byte; flat
// records are checked and packed as they load. Damaged input fails with
// ErrCorrupt.
func DecodeMeta(meta []byte) (*Index, error) {
	d := newDecoder(meta)
	ix := &Index{labelIDs: make(map[string]int32)}
	if len(meta) > 0 && meta[0] == 0 {
		d.b = d.b[1:]
		ver, err := d.uvarint("packed meta version")
		if err != nil {
			return nil, err
		}
		if ver != metaPackedVersion {
			return nil, corruptf("binary load: unsupported packed meta version %d", ver)
		}
		return ix, d.packedMeta(ix)
	}
	return ix, d.flatMeta(ix)
}

// preallocCap bounds an upfront slice allocation for a decoded count: the
// slice starts at most this many elements and grows by append, so a lying
// count costs a bounded allocation before the input runs dry.
const preallocCap = 1 << 16

// decoder reads the varint framing shared by the GKSI image and the GKS4
// meta section from a byte slice held in full. The input length bounds
// every count and string before anything is allocated, so a corrupt count
// fails instead of demanding a multi-GB allocation; every failure is
// ErrCorrupt.
type decoder struct {
	b    []byte // unread input
	size int    // total input length
}

func newDecoder(b []byte) *decoder { return &decoder{b: b, size: len(b)} }

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, corruptf("binary load: %s: truncated or overlong varint", what)
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) byte(what string) (byte, error) {
	if len(d.b) == 0 {
		return 0, corruptf("binary load: %s: unexpected end of input", what)
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c, nil
}

// bytes returns the next n input bytes without copying.
func (d *decoder) bytes(what string, n uint64) ([]byte, error) {
	if n > uint64(len(d.b)) {
		return nil, corruptf("binary load: %s: length %d overruns the %d bytes left", what, n, len(d.b))
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out, nil
}

func (d *decoder) str(what string) (string, error) {
	n, err := d.uvarint(what)
	if err != nil {
		return "", err
	}
	b, err := d.bytes(what, n)
	return string(b), err
}

// count reads an element count. Every element occupies at least minBytes
// bytes of input, so a count exceeding size/minBytes proves corruption;
// counts are int32-bounded like the ordinals they describe.
func (d *decoder) count(what string, minBytes int) (int, error) {
	n, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if n > 1<<31-1 || n > uint64(d.size/minBytes) {
		return 0, corruptf("binary load: %s %d exceeds what %d input bytes can hold", what, n, d.size)
	}
	return int(n), nil
}

// i32 reads a uvarint written as value+bias that must land in int32 range
// after unbiasing.
func (d *decoder) i32(what string, bias int64) (int32, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	u := int64(v) - bias
	if v > 1<<32 || u < -1 || u > 1<<31-1 {
		return 0, corruptf("binary load: %s: value %d out of range", what, u)
	}
	return int32(u), nil
}

// labelsAndDocs decodes the label and document-name tables that open both
// node-table layouts.
func (d *decoder) labelsAndDocs(ix *Index) error {
	n, err := d.count("label count", 1)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		l, err := d.str("label")
		if err != nil {
			return err
		}
		ix.labelIDs[l] = int32(len(ix.Labels))
		ix.Labels = append(ix.Labels, l)
	}
	if n, err = d.count("doc count", 1); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		name, err := d.str("doc name")
		if err != nil {
			return err
		}
		ix.DocNames = append(ix.DocNames, name)
	}
	return nil
}

// flatMeta decodes the labels/docs sections and a flat node table (the
// version 2 layout) into ix. The flat records must pass validateFlat
// before they are packed — packNodes indexes them blindly — and the
// packed result must pass the packed checks too.
func (d *decoder) flatMeta(ix *Index) error {
	if err := d.labelsAndDocs(ix); err != nil {
		return err
	}
	// A serialized node is at least 8 bytes (2 dewey varints + label +
	// category + child count + subtree + parent + has-value flag).
	nNodes, err := d.count("node count", 8)
	if err != nil {
		return err
	}
	nodes := make([]nodeInfo, 0, min(nNodes, preallocCap))
	for i := 0; i < nNodes; i++ {
		var n nodeInfo
		if n.ID, err = d.dewey(); err != nil {
			return err
		}
		if n.Label, err = d.i32("node label", 0); err != nil {
			return err
		}
		cat, err := d.byte("node category")
		if err != nil {
			return err
		}
		n.Cat = Category(cat)
		if n.ChildCount, err = d.i32("child count", 0); err != nil {
			return err
		}
		if n.Subtree, err = d.i32("subtree", 0); err != nil {
			return err
		}
		if n.Parent, err = d.i32("parent", 1); err != nil {
			return err
		}
		hv, err := d.byte("has-value flag")
		if err != nil {
			return err
		}
		if hv == 1 {
			n.HasValue = true
			if n.Value, err = d.str("value"); err != nil {
				return err
			}
		}
		nodes = append(nodes, n)
	}
	if err := validateFlat(nodes, int32(len(ix.Labels))); err != nil {
		return corruptf("binary load: %v", err)
	}
	p := packNodes(nodes)
	if err := p.validatePacked(); err != nil {
		return corruptf("binary load: %v", err)
	}
	ix.packed = p
	return nil
}

// validateFlat checks the structural invariants of flat records: labels
// in range, parents preceding their children (pre-order), subtree ranges
// inside the table and non-empty Dewey paths.
func validateFlat(nodes []nodeInfo, nLabels int32) error {
	for i := range nodes {
		n := &nodes[i]
		switch {
		case n.Label < 0 || n.Label >= nLabels:
			return fmt.Errorf("node %d: label %d out of range [0,%d)", i, n.Label, nLabels)
		case n.Parent < -1 || n.Parent >= int32(i):
			return fmt.Errorf("node %d: parent %d is not a preceding ordinal", i, n.Parent)
		case n.ChildCount < 0:
			return fmt.Errorf("node %d: negative child count %d", i, n.ChildCount)
		case n.Subtree < 1 || int64(i)+int64(n.Subtree) > int64(len(nodes)):
			return fmt.Errorf("node %d: subtree size %d overruns %d nodes", i, n.Subtree, len(nodes))
		case len(n.ID.Path) == 0:
			return fmt.Errorf("node %d: empty Dewey path", i)
		}
	}
	return nil
}

// dewey decodes one varint-framed Dewey ID.
func (d *decoder) dewey() (dewey.ID, error) {
	doc, err := d.uvarint("dewey document")
	if err != nil {
		return dewey.ID{}, err
	}
	n, err := d.count("dewey path length", 1)
	if err != nil {
		return dewey.ID{}, err
	}
	path := make([]int32, n)
	for i := range path {
		c, err := d.uvarint("dewey component")
		if err != nil {
			return dewey.ID{}, err
		}
		path[i] = int32(uint32(c))
	}
	return dewey.ID{Doc: int32(uint32(doc)), Path: path}, nil
}

// nodeRecord is one spine or shape row of the writeMeta layout.
type nodeRecord struct {
	label, child, subtree, parent, last, depth, val int32
	cat                                             uint8
}

// nodeRecord decodes one spine or shape row: label, category byte, child
// count, subtree, parent+1, trailing Dewey component, depth, value id+1.
func (d *decoder) nodeRecord() (r nodeRecord, err error) {
	if r.label, err = d.i32("node label", 0); err != nil {
		return
	}
	if r.cat, err = d.byte("node category"); err != nil {
		return
	}
	if r.child, err = d.i32("node child count", 0); err != nil {
		return
	}
	if r.subtree, err = d.i32("node subtree", 0); err != nil {
		return
	}
	if r.parent, err = d.i32("node parent", 1); err != nil {
		return
	}
	if r.last, err = d.i32("node last component", 0); err != nil {
		return
	}
	if r.depth, err = d.i32("node depth", 0); err != nil {
		return
	}
	r.val, err = d.i32("node value id", 1)
	return
}

// packedMeta decodes the writeMeta layout into ix.packed. The per-ordinal
// dispatch array is reconstructed from the instance ranges and the
// ascending-ordinal spine rule, and the result must pass the full packed
// validation before it is accepted — the O(1) accessors index blindly, so
// a decoded image that would make them misbehave is rejected here as
// ErrCorrupt.
func (d *decoder) packedMeta(ix *Index) error {
	if err := d.labelsAndDocs(ix); err != nil {
		return err
	}
	// Every node costs at least one byte somewhere (spine record, shape
	// record amortized over instances, or dispatch coverage); 1 is the only
	// safe per-node floor for a heavily deduplicated table.
	n, err := d.count("node count", 1)
	if err != nil {
		return err
	}
	// A loaded table starts a fresh delta-append lineage: debt counters
	// are not serialized (they only drive repack scheduling), so a loaded
	// image owes nothing until it delta-appends again.
	p := &packedNodes{}
	p.app = &appendState{owner: p}
	capped := func(c int) int { return min(c, preallocCap) }

	nSpine, err := d.count("spine count", 8)
	if err != nil || nSpine > n {
		return cmp.Or(err, corruptf("binary load: %d spine records for %d nodes", nSpine, n))
	}
	p.spLabel = make([]int32, 0, capped(nSpine))
	p.spCat = make([]uint8, 0, capped(nSpine))
	p.spChild = make([]int32, 0, capped(nSpine))
	p.spSubtree = make([]int32, 0, capped(nSpine))
	p.spParent = make([]int32, 0, capped(nSpine))
	p.spLast = make([]int32, 0, capped(nSpine))
	p.spDepth = make([]int32, 0, capped(nSpine))
	p.spVal = make([]int32, 0, capped(nSpine))
	for i := 0; i < nSpine; i++ {
		r, err := d.nodeRecord()
		if err != nil {
			return err
		}
		p.spLabel = append(p.spLabel, r.label)
		p.spCat = append(p.spCat, r.cat)
		p.spChild = append(p.spChild, r.child)
		p.spSubtree = append(p.spSubtree, r.subtree)
		p.spParent = append(p.spParent, r.parent)
		p.spLast = append(p.spLast, r.last)
		p.spDepth = append(p.spDepth, r.depth)
		p.spVal = append(p.spVal, r.val)
	}

	nInst, err := d.count("instance count", 5)
	if err != nil || nInst > n {
		return cmp.Or(err, corruptf("binary load: %d instances for %d nodes", nInst, n))
	}
	p.inStart = make([]int32, 0, capped(nInst))
	p.inShape = make([]int32, 0, capped(nInst))
	p.inParent = make([]int32, 0, capped(nInst))
	p.inLast = make([]int32, 0, capped(nInst))
	p.inDepth = make([]int32, 0, capped(nInst))
	for i := 0; i < nInst; i++ {
		var start, shape, parent, last, depth int32
		if start, err = d.i32("instance start", 0); err != nil {
			return err
		}
		if shape, err = d.i32("instance shape", 0); err != nil {
			return err
		}
		if parent, err = d.i32("instance parent", 1); err != nil {
			return err
		}
		if last, err = d.i32("instance last component", 0); err != nil {
			return err
		}
		if depth, err = d.i32("instance depth", 0); err != nil {
			return err
		}
		p.inStart = append(p.inStart, start)
		p.inShape = append(p.inShape, shape)
		p.inParent = append(p.inParent, parent)
		p.inLast = append(p.inLast, last)
		p.inDepth = append(p.inDepth, depth)
	}

	nShapes, err := d.count("shape count", 9)
	if err != nil || nShapes > n+1 {
		return cmp.Or(err, corruptf("binary load: %d shapes for %d nodes", nShapes, n))
	}
	p.shOff = make([]int32, 0, capped(nShapes+1))
	p.shOff = append(p.shOff, 0)
	for s := 0; s < nShapes; s++ {
		shSize, err := d.count("shape size", 8)
		if err != nil || shSize < 1 || shSize > n {
			return cmp.Or(err, corruptf("binary load: packed shape %d: size %d", s, shSize))
		}
		for k := 0; k < shSize; k++ {
			r, err := d.nodeRecord()
			if err != nil {
				return err
			}
			p.shLabel = append(p.shLabel, r.label)
			p.shCat = append(p.shCat, r.cat)
			p.shChild = append(p.shChild, r.child)
			p.shSubtree = append(p.shSubtree, r.subtree)
			p.shParent = append(p.shParent, r.parent)
			p.shLast = append(p.shLast, r.last)
			p.shDepth = append(p.shDepth, r.depth)
			p.shVal = append(p.shVal, r.val)
		}
		p.shOff = append(p.shOff, int32(len(p.shLabel)))
	}

	nVals, err := d.count("value count", 1)
	if err != nil {
		return err
	}
	arenaLen, err := d.uvarint("value arena length")
	if err != nil {
		return err
	}
	arena, err := d.bytes("value arena", arenaLen)
	if err != nil {
		return err
	}
	p.valArena = bytes.Clone(arena)
	p.valOff = make([]int32, 0, capped(nVals+1))
	p.valOff = append(p.valOff, 0)
	off := uint64(0)
	for v := 0; v < nVals; v++ {
		l, err := d.uvarint("value length")
		if err != nil {
			return err
		}
		if off += l; off > arenaLen {
			return corruptf("binary load: packed value lengths overrun arena")
		}
		p.valOff = append(p.valOff, int32(off))
	}
	if off != arenaLen {
		return corruptf("binary load: packed value lengths cover %d of %d arena bytes", off, arenaLen)
	}

	nRoots, err := d.count("doc root count", 2)
	if err != nil || nRoots > n {
		return cmp.Or(err, corruptf("binary load: %d document roots for %d nodes", nRoots, n))
	}
	p.docStart = make([]int32, 0, capped(nRoots))
	p.docNum = make([]int32, 0, capped(nRoots))
	for k := 0; k < nRoots; k++ {
		start, err := d.i32("doc root start", 0)
		if err != nil {
			return err
		}
		num, err := d.i32("doc root number", 0)
		if err != nil {
			return err
		}
		p.docStart = append(p.docStart, start)
		p.docNum = append(p.docNum, num)
	}

	// Reconstruct the dispatch array: instance ranges claim their spans,
	// the remaining ordinals take spine slots in ascending order.
	const unset = -1 << 31
	p.ordInst = make([]int32, n)
	for ord := range p.ordInst {
		p.ordInst[ord] = unset
	}
	for i := int32(0); i < int32(len(p.inStart)); i++ {
		s := p.inShape[i]
		if s < 0 || int(s) >= nShapes {
			return corruptf("binary load: packed instance %d: shape %d out of range", i, s)
		}
		sz := p.shOff[s+1] - p.shOff[s]
		start := p.inStart[i]
		if start < 0 || int64(start)+int64(sz) > int64(n) {
			return corruptf("binary load: packed instance %d: range overruns node table", i)
		}
		for k := int32(0); k < sz; k++ {
			if p.ordInst[start+k] != unset {
				return corruptf("binary load: packed instance %d overlaps another", i)
			}
			p.ordInst[start+k] = i
		}
	}
	slot := int32(0)
	for ord := range p.ordInst {
		if p.ordInst[ord] == unset {
			if int(slot) >= nSpine {
				return corruptf("binary load: packed table needs more than %d spine slots", nSpine)
			}
			p.ordInst[ord] = ^slot
			slot++
		}
	}
	if int(slot) != nSpine {
		return corruptf("binary load: packed table uses %d of %d spine slots", slot, nSpine)
	}

	if err := p.validatePacked(); err != nil {
		return corruptf("binary load: %v", err)
	}
	for _, arr := range [][]int32{p.spLabel, p.shLabel} {
		for _, l := range arr {
			if l < 0 || int(l) >= len(ix.Labels) {
				return corruptf("binary load: packed node label %d out of range [0,%d)", l, len(ix.Labels))
			}
		}
	}
	ix.packed = p
	return nil
}
