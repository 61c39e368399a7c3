package blockfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"soi/internal/atomicfile"
)

// Offline verification and repair of container files — the library half of
// cmd soifsck. Everything here is graph-free: the kind's directory rules and
// block decoder need nothing but the file, so a repair box does not have to
// ship the (much larger) graph an index was built from.

// BlockReport is one block's verification outcome.
type BlockReport struct {
	Off int64
	Len int64
	Aux uint32
	// Err is nil when the block verified clean (CRC and decode).
	Err error
}

// Report summarizes the verification of one file.
type Report struct {
	// Kind is the kind the file's magic names; nil when it names none.
	Kind     *Kind
	Format   string // the magic as found in the file
	FileSize int64
	N        uint32 // the header size word
	// Blocks has one entry per directory entry, each verified independently.
	Blocks []BlockReport
	// FooterOK reports the whole-file checksum.
	FooterOK bool
	// Trailing counts bytes after the footer.
	Trailing int64
	// Fatal is a whole-file problem that prevented per-block verification:
	// unknown magic, implausible header, torn or corrupt directory.
	Fatal error
}

// Bad counts blocks that failed verification.
func (rep *Report) Bad() int {
	n := 0
	for _, b := range rep.Blocks {
		if b.Err != nil {
			n++
		}
	}
	return n
}

// Clean reports whether the file verified completely.
func (rep *Report) Clean() bool {
	return rep.Fatal == nil && rep.FooterOK && rep.Trailing == 0 && rep.Bad() == 0
}

// Verify checks data exhaustively against whichever of kinds its magic
// names: header, directory, every block's CRC and decode, the footer, and
// trailing bytes. Corruption is reported, never returned, so one pass
// describes every bad block instead of stopping at the first.
func Verify(data []byte, kinds ...*Kind) *Report {
	rep := &Report{FileSize: int64(len(data))}
	if len(data) < 8 {
		rep.Fatal = fmt.Errorf("%w: %d bytes is too short for a header", ErrTruncated, len(data))
		return rep
	}
	rep.Format = string(data[:8])
	for _, k := range kinds {
		if bytes.Equal(data[:8], k.Magic[:]) {
			rep.Kind = k
		}
	}
	if rep.Kind == nil {
		rep.Fatal = fmt.Errorf("%w: unrecognized magic %q", ErrCorrupt, data[:8])
		for _, k := range kinds {
			if bytes.Equal(data[:6], k.Magic[:6]) { // a retired version of a known kind
				rep.Fatal = fmt.Errorf("%s: %w", k.Name, k.badMagic(data[:8]))
			}
		}
		return rep
	}
	if err := rep.verify(data); err != nil {
		rep.Fatal = fmt.Errorf("%s: %w", rep.Kind.Name, err)
	}
	return rep
}

func (rep *Report) verify(data []byte) error {
	k := rep.Kind
	if len(data) < HeaderLen {
		return fmt.Errorf("%w: %d bytes is too short for a header", ErrTruncated, len(data))
	}
	n, blocks, err := k.header(data)
	if err != nil {
		return err
	}
	rep.N = n
	dirEnd := HeaderLen + int64(blocks)*EntrySize
	if int64(len(data)) < dirEnd+4 {
		return fmt.Errorf("%w: file ends inside the %d-block directory", ErrTruncated, blocks)
	}
	dir, err := k.directory(n, data[:dirEnd], binary.LittleEndian.Uint32(data[dirEnd:]), -1)
	if err != nil {
		return err
	}
	end := BlocksStart(len(dir)) + FooterLen
	if len(dir) > 0 {
		last := dir[len(dir)-1]
		end = last.Off + int64(last.Len) + FooterLen
	}
	if int64(len(data)) < end {
		return fmt.Errorf("%w: file is %d bytes, directory promises %d", ErrTruncated, len(data), end)
	}
	rep.Trailing = int64(len(data)) - end

	dec := k.Decoder(n, dir)
	rep.Blocks = make([]BlockReport, len(dir))
	for i, b := range dir {
		blk := data[b.Off : b.Off+int64(b.Len)]
		br := &rep.Blocks[i]
		*br = BlockReport{Off: b.Off, Len: int64(b.Len), Aux: b.Aux}
		if sum := Checksum(blk); sum != b.CRC {
			br.Err = fmt.Errorf("%w: block hashes to %08x, directory says %08x", ErrCorrupt, sum, b.CRC)
		} else if err := dec(i, blk); err != nil {
			br.Err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	rep.FooterOK = Checksum(data[:end-FooterLen]) == binary.LittleEndian.Uint32(data[end-FooterLen:])
	return nil
}

// Fsck reads and verifies the file at path (see Verify). The error covers
// I/O only.
func Fsck(path string, kinds ...*Kind) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Verify(data, kinds...), nil
}

// Repair verifies src and writes a fresh container to dst holding the raw
// bytes of every block that verified. Only Droppable kinds may lose blocks;
// for the others every block must verify, so repair fixes footer and
// trailing-byte damage only. It returns the report for src and the number
// of blocks kept. A file with no surviving block is not repaired: it
// answers nothing, so it should be rebuilt.
func Repair(src, dst string, kinds ...*Kind) (*Report, int, error) {
	data, err := os.ReadFile(src)
	if err != nil {
		return nil, 0, err
	}
	rep := Verify(data, kinds...)
	if rep.Fatal != nil {
		return rep, 0, fmt.Errorf("%s is unrepairable: %w", src, rep.Fatal)
	}
	k := rep.Kind
	kept := make([]Block, 0, len(rep.Blocks))
	for i, b := range rep.Blocks {
		if b.Err != nil {
			if !k.Droppable {
				return rep, 0, fmt.Errorf("%s: %s %d of %s is corrupt and cannot be dropped; rebuild with %s", k.Name, k.Unit, i, src, k.Rebuild)
			}
			continue
		}
		raw := data[b.Off : b.Off+b.Len]
		kept = append(kept, Block{Aux: b.Aux, Encode: func(w io.Writer) error {
			_, err := w.Write(raw)
			return err
		}})
	}
	if len(kept) == 0 && len(rep.Blocks) > 0 {
		return rep, 0, fmt.Errorf("%s: no %s of %s survived verification; rebuild with %s", k.Name, k.Unit, src, k.Rebuild)
	}
	err = atomicfile.WriteFile(dst, func(w io.Writer) error {
		_, err := Write(w, k.Magic, rep.N, kept)
		return err
	})
	return rep, len(kept), err
}
