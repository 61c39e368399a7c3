package blockfile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "win.bin")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWindowRangeBounds(t *testing.T) {
	w, err := OpenWindow(writeTemp(t, []byte("hello world")))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Size() != 11 {
		t.Fatalf("Size = %d, want 11", w.Size())
	}
	b, err := w.Range(6, 5)
	if err != nil || string(b) != "world" {
		t.Fatalf("Range(6,5) = %q, %v", b, err)
	}
	for _, c := range []struct{ off, n int64 }{
		{-1, 2}, {0, 12}, {11, 1}, {5, -1}, {1 << 62, 1 << 62},
	} {
		if _, err := w.Range(c.off, c.n); !errors.Is(err, ErrTruncated) {
			t.Errorf("Range(%d,%d): err = %v, want ErrTruncated", c.off, c.n, err)
		}
	}
}

func TestWindowReadVerified(t *testing.T) {
	payload := []byte("some block payload")
	w, err := OpenWindow(writeTemp(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got, err := w.ReadVerified(0, uint32(len(payload)), Checksum(payload))
	if err != nil || string(got) != string(payload) {
		t.Fatalf("ReadVerified = %q, %v", got, err)
	}
	if _, err := w.ReadVerified(0, uint32(len(payload)), Checksum(payload)+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad CRC: err = %v, want ErrCorrupt", err)
	}
	if _, err := w.ReadVerified(5, uint32(len(payload)), Checksum(payload)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("out of range: err = %v, want ErrTruncated", err)
	}
}

// A file shrunk after mapping must surface as ErrTruncated, not SIGBUS.
// Bounds checks can't see the shrink (the Window captured the old size), so
// this exercises the SetPanicOnFault recovery path. Only meaningful where
// the window is a real mapping.
func TestWindowShrunkFileFaults(t *testing.T) {
	data := make([]byte, 64*1024) // span pages so truncation unmaps the tail
	for i := range data {
		data[i] = byte(i)
	}
	p := writeTemp(t, data)
	w, err := OpenWindow(p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.Mapped() {
		t.Skip("heap-backed window: shrink cannot fault")
	}
	if err := os.Truncate(p, 4096); err != nil {
		t.Fatal(err)
	}
	_, err = w.ReadVerified(60*1024, 1024, 0)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("read past truncation: err = %v, want ErrTruncated", err)
	}
	// The in-bounds prefix must still read fine.
	if _, err := w.ReadVerified(0, 1024, Checksum(data[:1024])); err != nil {
		t.Fatalf("read of surviving prefix: %v", err)
	}
}

func TestDirectoryRoundTrip(t *testing.T) {
	dir := []BlockInfo{
		{Off: 100, Len: 40, CRC: 0xdeadbeef, Aux: 3},
		{Off: 140, Len: 0, CRC: 0, Aux: 0},
		{Off: 140, Len: 1 << 20, CRC: 42, Aux: 7},
	}
	var buf []byte
	for _, e := range dir {
		buf = AppendEntry(buf, e)
	}
	got, err := ParseDirectory(buf, len(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := range dir {
		if got[i] != dir[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, got[i], dir[i])
		}
	}
	if _, err := ParseDirectory(buf[:len(buf)-1], len(dir)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short directory: err = %v, want ErrCorrupt", err)
	}
}

func TestValidateLayout(t *testing.T) {
	dir := []BlockInfo{{Off: 24, Len: 10}, {Off: 34, Len: 6}}
	if err := ValidateLayout(dir, 24, 4, 44); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	if err := ValidateLayout(dir, 24, 4, -1); err != nil {
		t.Fatalf("unknown file size rejected: %v", err)
	}
	if err := ValidateLayout(dir, 24, 4, 40); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short file: err = %v, want ErrTruncated", err)
	}
	if err := ValidateLayout(dir, 24, 4, 50); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: err = %v, want ErrCorrupt", err)
	}
	gap := []BlockInfo{{Off: 24, Len: 10}, {Off: 36, Len: 6}}
	if err := ValidateLayout(gap, 24, 4, 46); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap between blocks: err = %v, want ErrCorrupt", err)
	}
}

// toyKind stores one string per block, its length in aux; the header word
// is the longest length a block may have.
var toyKind = &Kind{
	Magic:   [8]byte{'T', 'O', 'Y', 'T', 'O', 'Y', '0', '1'},
	Name:    "toy",
	Unit:    "block",
	Rebuild: "toygen",
	Layout: func(n uint32, dir []BlockInfo) error {
		for i, b := range dir {
			if b.Aux > n {
				return fmt.Errorf("block %d holds %d bytes, more than the %d-byte limit", i, b.Aux, n)
			}
		}
		return nil
	},
	Decoder: func(_ uint32, dir []BlockInfo) Decoder {
		return func(i int, data []byte) error {
			if uint32(len(data)) != dir[i].Aux {
				return fmt.Errorf("aux %d, block is %d bytes", dir[i].Aux, len(data))
			}
			return nil
		}
	},
	Droppable: true,
}

func toyFile(t *testing.T, words ...string) []byte {
	t.Helper()
	blocks := make([]Block, len(words))
	for i, w := range words {
		blocks[i] = Block{Aux: uint32(len(w)), Encode: func(out io.Writer) error {
			_, err := io.WriteString(out, w)
			return err
		}}
	}
	var buf bytes.Buffer
	n, err := Write(&buf, toyKind.Magic, 16, blocks)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("Write = %d, %v; wrote %d bytes", n, err, buf.Len())
	}
	return buf.Bytes()
}

// TestContainerRoundTrip writes a container, reads it back strictly, and
// checks that the window opener, Measure and Verify agree on its
// directory, including for a file with no blocks.
func TestContainerRoundTrip(t *testing.T) {
	for _, words := range [][]string{{"alpha", "", "gamma"}, {}} {
		data := toyFile(t, words...)
		var got []string
		err := Read(bytes.NewReader(data), toyKind, func(n uint32, dir []BlockInfo) (Decoder, error) {
			return func(i int, b []byte) error { got = append(got, string(b)); return nil }, nil
		})
		if err != nil || strings.Join(got, ",") != strings.Join(words, ",") {
			t.Fatalf("Read = %q, %v; want %q", got, err, words)
		}
		w, err := OpenWindow(writeTemp(t, data))
		if err != nil {
			t.Fatal(err)
		}
		n, dir, err := w.Directory(toyKind)
		w.Close()
		if err != nil || n != 16 || len(dir) != len(words) {
			t.Fatalf("Directory: n %d, err %v", n, err)
		}
		blocks := make([]Block, len(words))
		for i, word := range words {
			blocks[i] = Block{Aux: uint32(len(word)), Encode: func(out io.Writer) error { _, err := io.WriteString(out, word); return err }}
		}
		if measured, err := Measure(blocks); err != nil || fmt.Sprint(measured) != fmt.Sprint(dir) {
			t.Fatalf("Measure = %v, %v; file directory %v", measured, err, dir)
		}
		if rep := Verify(data, toyKind); !rep.Clean() || len(rep.Blocks) != len(words) {
			t.Fatalf("Verify: %+v", rep)
		}
		if err := Read(bytes.NewReader(append(data, 0)), toyKind, func(uint32, []BlockInfo) (Decoder, error) {
			return func(int, []byte) error { return nil }, nil
		}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
		}
	}
}

// TestRepairDropsOnlyDroppableBlocks: a droppable kind loses its corrupt
// block and keeps the others byte for byte; a kind whose blocks cannot be
// dropped refuses, naming the rebuild command.
func TestRepairDropsOnlyDroppableBlocks(t *testing.T) {
	data := toyFile(t, "alpha", "beta", "gamma")
	rep := Verify(data, toyKind)
	data[rep.Blocks[1].Off] ^= 0xFF
	src := writeTemp(t, data)
	dst := filepath.Join(t.TempDir(), "fixed.bin")

	strict := *toyKind
	strict.Droppable = false
	if _, _, err := Repair(src, dst, &strict); err == nil || !strings.Contains(err.Error(), "rebuild with toygen") {
		t.Fatalf("non-droppable repair: err = %v, want a rebuild error", err)
	}
	rep, kept, err := Repair(src, dst, toyKind)
	if err != nil || kept != 2 || rep.Bad() != 1 || rep.Blocks[1].Err == nil {
		t.Fatalf("Repair: kept %d, bad %d, err %v", kept, rep.Bad(), err)
	}
	fixed, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixed, toyFile(t, "alpha", "gamma")) {
		t.Fatal("repair did not keep the surviving blocks byte for byte")
	}
}
