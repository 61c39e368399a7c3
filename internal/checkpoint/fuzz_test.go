package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the checkpoint decoder: it must never
// panic or allocate unboundedly, and anything it accepts must be internally
// consistent (bitmap population matches the recorded count, no bits beyond
// the unit range).
func FuzzRead(f *testing.F) {
	const fp, units = 0x5EED, 100
	// Valid checkpoint with a sparse bitmap and a payload.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.ckpt")
	done := NewBitmap(units)
	for _, i := range []int{0, 7, 8, 63, 64, 99} {
		done.Set(i)
	}
	if err := Save(path, fp, done, []byte("partial accumulator bytes")); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Empty bitmap, empty payload.
	if err := Save(path, fp, NewBitmap(units), nil); err != nil {
		f.Fatal(err)
	}
	empty, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	// Truncated, bit-flipped, and trailing-garbage variants.
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x01 // unit count in the header
	f.Add(flipped)
	flipped2 := append([]byte(nil), valid...)
	flipped2[len(flipped2)/2] ^= 0x80 // bitmap / payload region
	f.Add(flipped2)
	f.Add(append(append([]byte(nil), valid...), 0xAA))
	f.Add([]byte("SOICKP01")) // retired format
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Read(bytes.NewReader(data), fp, units)
		if err != nil {
			return
		}
		if st.Done.Len() != units {
			t.Fatalf("accepted checkpoint with %d units, want %d", st.Done.Len(), units)
		}
		if st.Done.Count() > units {
			t.Fatalf("bitmap population %d exceeds unit count", st.Done.Count())
		}
	})
}
