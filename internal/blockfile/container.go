package blockfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The container layout (little endian), shared by every artifact kind:
//
//	magic    [8]byte  names the kind and its version, e.g. "SOIIDX03"
//	n        uint32   the kind's size word (nodes, or checkpoint units)
//	blocks   uint32
//	dir      blocks × {off u64, len u32, crc u32, aux u32}
//	dirCRC   uint32   CRC32-C of every byte above, magic included
//	blocks   contiguous, block i at dir[i].off
//	footer   uint32   CRC32-C of every preceding byte
//
// The layout is the one the index introduced as SOIIDX03, unchanged, so
// every index file written since keeps opening. The directory-first shape
// lets a memory-mapped reader verify a few KB up front and fault blocks in
// on demand; the per-block CRCs make corruption a per-block property; the
// whole-file footer is for strict streaming reads and fsck.

const (
	// HeaderLen is the size of the fixed header: magic, n, block count.
	HeaderLen = 8 + 4 + 4
	// FooterLen is the size of the whole-file checksum footer.
	FooterLen = 4
	// MaxBlocks bounds the header block count before any allocation trusts it.
	MaxBlocks = 1 << 24
)

// BlocksStart is the offset of the first block of a container with the
// given block count: header, directory, directory CRC.
func BlocksStart(blocks int) int64 {
	return HeaderLen + int64(blocks)*EntrySize + 4
}

// Kind describes one artifact kind stored in the container.
type Kind struct {
	Magic [8]byte
	// Name prefixes errors and reports ("index", "sphere store").
	Name string
	// Unit names one block in reports ("world" for the index, else "block").
	Unit string
	// Rebuild is the command that regenerates a file of this kind; a file
	// with a retired magic fails with an error that names it.
	Rebuild string
	// Layout validates the size word and the directory, graph-free, before
	// any block is read. nil accepts any geometry.
	Layout func(n uint32, dir []BlockInfo) error
	// Decoder returns a fresh, graph-free decoder for the blocks of one
	// file. fsck runs it over every block that passes its CRC.
	Decoder func(n uint32, dir []BlockInfo) Decoder
	// Droppable marks kinds whose blocks are independent samples (index
	// worlds): repair drops the blocks that fail verification. Repair of
	// any other kind fixes only footer and trailing-byte damage.
	Droppable bool
}

// Decoder decodes and validates block i from bytes that already match the
// block's CRC. The bytes are only valid during the call: a decoder that
// keeps them must copy. Blocks arrive in order; fsck skips corrupt ones.
type Decoder func(i int, data []byte) error

// badMagic is the error for a file whose magic is not k's: a foreign file
// or a retired format version, which must be regenerated.
func (k *Kind) badMagic(m []byte) error {
	return fmt.Errorf("%w: bad magic %q, want %q; rebuild with %s", ErrCorrupt, m, k.Magic[:], k.Rebuild)
}

// header decodes the fixed header: magic, size word, block count.
func (k *Kind) header(head []byte) (uint32, int, error) {
	if m := head[:8]; !bytes.Equal(m, k.Magic[:]) {
		return 0, 0, k.badMagic(m)
	}
	b := binary.LittleEndian.Uint32(head[12:])
	if b > MaxBlocks {
		return 0, 0, fmt.Errorf("%w: implausible block count %d", ErrCorrupt, b)
	}
	return binary.LittleEndian.Uint32(head[8:]), int(b), nil
}

// directory verifies the directory CRC over covered (header plus
// directory), parses the entries, and checks their geometry and the kind's
// rules. fileSize < 0 skips the end-of-file check.
func (k *Kind) directory(n uint32, covered []byte, stored uint32, fileSize int64) ([]BlockInfo, error) {
	if sum := Checksum(covered); sum != stored {
		return nil, fmt.Errorf("%w: directory checksum mismatch: file carries %08x, directory hashes to %08x", ErrCorrupt, stored, sum)
	}
	dir, err := ParseDirectory(covered[HeaderLen:], (len(covered)-HeaderLen)/EntrySize)
	if err != nil {
		return nil, err
	}
	if err := ValidateLayout(dir, BlocksStart(len(dir)), FooterLen, fileSize); err != nil {
		return nil, err
	}
	if k.Layout != nil {
		if err := k.Layout(n, dir); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return dir, nil
}

// Block is one block to write: Aux goes into its directory entry, Encode
// writes its bytes. Encode runs twice — once to measure and checksum, once
// to stream — so it must be deterministic.
type Block struct {
	Aux    uint32
	Encode func(w io.Writer) error
}

// sumWriter counts and CRC32-C-checksums what passes through it; with a nil
// w it only measures.
type sumWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (s *sumWriter) Write(p []byte) (int, error) {
	n := len(p)
	var err error
	if s.w != nil {
		n, err = s.w.Write(p)
	}
	s.crc = crc32.Update(s.crc, castagnoli, p[:n])
	s.n += int64(n)
	return n, err
}

// Measure is the first pass of the writer: it sizes and checksums every
// block without storing it, and lays the blocks out contiguously after the
// directory. The result is the directory Write would produce.
func Measure(blocks []Block) ([]BlockInfo, error) {
	dir := make([]BlockInfo, len(blocks))
	off := BlocksStart(len(blocks))
	for i, b := range blocks {
		var m sumWriter
		if err := b.Encode(&m); err != nil {
			return nil, err
		}
		dir[i] = BlockInfo{Off: off, Len: uint32(m.n), CRC: m.crc, Aux: b.Aux}
		if int64(dir[i].Len) != m.n {
			return nil, fmt.Errorf("blockfile: block %d is %d bytes, beyond the 4 GiB block limit", i, m.n)
		}
		off += m.n
	}
	return dir, nil
}

// Write streams a container: the Measure pass, then header, directory,
// blocks and footer in a second pass that never buffers a whole block.
// It returns the number of bytes written.
func Write(w io.Writer, magic [8]byte, n uint32, blocks []Block) (int64, error) {
	dir, err := Measure(blocks)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	sw := &sumWriter{w: bw}
	head := make([]byte, 0, BlocksStart(len(dir)))
	head = append(head, magic[:]...)
	head = binary.LittleEndian.AppendUint32(head, n)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(dir)))
	for _, b := range dir {
		head = AppendEntry(head, b)
	}
	head = binary.LittleEndian.AppendUint32(head, Checksum(head))
	if _, err := sw.Write(head); err != nil {
		return sw.n, err
	}
	for i, b := range blocks {
		if err := b.Encode(sw); err != nil {
			return sw.n, err
		}
		if end := dir[i].Off + int64(dir[i].Len); sw.n != end {
			return sw.n, fmt.Errorf("blockfile: block %d encoded to a different length on the second pass", i)
		}
	}
	footer := binary.LittleEndian.AppendUint32(nil, sw.crc)
	if _, err := sw.Write(footer); err != nil {
		return sw.n, err
	}
	return sw.n, bw.Flush()
}

// Read is the strict streaming reader. It verifies the magic, the
// directory CRC and geometry, every block's CRC and decode, the whole-file
// footer, and that nothing follows it; any failure rejects the file. It
// holds one block at a time. open receives the verified size word and
// directory before any block is read and returns the decoder for the
// blocks; it is where a caller rejects a header that does not fit it (an
// index built for another graph).
func Read(r io.Reader, k *Kind, open func(n uint32, dir []BlockInfo) (Decoder, error)) error {
	if err := read(bufio.NewReader(r), k, open); err != nil {
		return fmt.Errorf("%s: %w", k.Name, err)
	}
	return nil
}

func read(br *bufio.Reader, k *Kind, open func(n uint32, dir []BlockInfo) (Decoder, error)) error {
	head := make([]byte, HeaderLen)
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	n, blocks, err := k.header(head)
	if err != nil {
		return err
	}
	// The directory is read through a growing buffer rather than a trusted
	// up-front allocation, so a forged block count fails at EOF instead of
	// allocating hundreds of MB.
	covered := bytes.NewBuffer(head)
	if _, err := io.CopyN(covered, br, int64(blocks)*EntrySize); err != nil {
		return fmt.Errorf("%w: directory: %v", ErrTruncated, err)
	}
	var word [4]byte
	if _, err := io.ReadFull(br, word[:]); err != nil {
		return fmt.Errorf("%w: directory checksum: %v", ErrTruncated, err)
	}
	dir, err := k.directory(n, covered.Bytes(), binary.LittleEndian.Uint32(word[:]), -1)
	if err != nil {
		return err
	}
	dec, err := open(n, dir)
	if err != nil {
		return err
	}

	sum := crc32.Update(Checksum(covered.Bytes()), castagnoli, word[:])
	var blk bytes.Buffer
	for i, b := range dir {
		blk.Reset()
		if _, err := io.CopyN(&blk, br, int64(b.Len)); err != nil {
			return fmt.Errorf("%w: %s %d: %v", ErrTruncated, k.Unit, i, err)
		}
		data := blk.Bytes()
		if got := Checksum(data); got != b.CRC {
			return fmt.Errorf("%w: %s %d hashes to %08x, directory says %08x", ErrCorrupt, k.Unit, i, got, b.CRC)
		}
		if err := dec(i, data); err != nil {
			return fmt.Errorf("%w: %s %d: %v", ErrCorrupt, k.Unit, i, err)
		}
		sum = crc32.Update(sum, castagnoli, data)
	}
	if _, err := io.ReadFull(br, word[:]); err != nil {
		return fmt.Errorf("%w: footer: %v", ErrTruncated, err)
	}
	if stored := binary.LittleEndian.Uint32(word[:]); stored != sum {
		return fmt.Errorf("%w: checksum mismatch: file carries %08x, payload hashes to %08x", ErrCorrupt, stored, sum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after checksum footer", ErrCorrupt)
	}
	return nil
}

// Directory verifies the header and directory of a container in the
// window — magic, directory CRC, and geometry against the window size — and
// returns the size word and the directory. No block is read: fetch each
// with ReadVerified on first use. The whole-file footer is deliberately not
// checked, since that would fault every page in.
func (w *Window) Directory(k *Kind) (uint32, []BlockInfo, error) {
	n, dir, err := w.directory(k)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	return n, dir, nil
}

func (w *Window) directory(k *Kind) (uint32, []BlockInfo, error) {
	head, err := w.Range(0, HeaderLen)
	if err != nil {
		return 0, nil, err
	}
	n, blocks, err := k.header(head)
	if err != nil {
		return 0, nil, err
	}
	covered, err := w.Range(0, HeaderLen+int64(blocks)*EntrySize)
	if err != nil {
		return 0, nil, err
	}
	word, err := w.Range(int64(len(covered)), 4)
	if err != nil {
		return 0, nil, err
	}
	dir, err := k.directory(n, covered, binary.LittleEndian.Uint32(word), w.Size())
	return n, dir, err
}

// RangeNodes is the number of nodes per block in kinds that chunk per-node
// records by node range (the sphere store and the sketch). It is part of
// the format, not an option: readers check the directory against it.
const RangeNodes = 256

// Ranges returns the number of node-range blocks covering n nodes.
func Ranges(n int) int { return (n + RangeNodes - 1) / RangeNodes }

// NodeRange returns the nodes [lo, hi) that range block r of n nodes holds.
func NodeRange(r, n int) (lo, hi int) {
	lo = r * RangeNodes
	return lo, min(lo+RangeNodes, n)
}

// CheckRanges validates that dir[first:] are exactly the node-range blocks
// of n nodes, each carrying its node count in Aux.
func CheckRanges(n uint32, dir []BlockInfo, first int) error {
	if want := first + Ranges(int(n)); len(dir) != want {
		return fmt.Errorf("%d blocks, want %d for %d nodes", len(dir), want, n)
	}
	for r, b := range dir[first:] {
		if lo, hi := NodeRange(r, int(n)); b.Aux != uint32(hi-lo) {
			return fmt.Errorf("block %d holds %d nodes, want %d", first+r, b.Aux, hi-lo)
		}
	}
	return nil
}
