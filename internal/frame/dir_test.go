package frame

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
)

func TestWriteTempRemovesOnError(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	if _, _, err := WriteTemp(dir, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("failed write left %d files behind", len(left))
	}
}

// TestPublishKeepsOversizedEntry publishes an entry larger than the whole
// budget: every older entry is evicted, but never the one just written.
func TestPublishKeepsOversizedEntry(t *testing.T) {
	d, err := OpenDir(t.TempDir(), ".e", 100)
	if err != nil {
		t.Fatal(err)
	}
	put := func(k byte, n int) (int64, int) {
		t.Helper()
		size, evicted, err := d.Publish([KeySize]byte{k}, func(w io.Writer) error {
			_, err := w.Write(bytes.Repeat([]byte{k}, n))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return size, evicted
	}
	put(1, 40)
	put(2, 40)
	if size, evicted := put(3, 150); size != 150 || evicted != 2 {
		t.Fatalf("Publish = (%d, %d evicted), want (150, 2)", size, evicted)
	}
	if got := d.Bytes(); got != 150 {
		t.Fatalf("Bytes = %d, want 150", got)
	}
	for k, want := range map[byte]bool{1: false, 2: false, 3: true} {
		if _, err := os.Stat(d.Path([KeySize]byte{k})); (err == nil) != want {
			t.Fatalf("entry %d present = %v, want %v", k, err == nil, want)
		}
	}
}
