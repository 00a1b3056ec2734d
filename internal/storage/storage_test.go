package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pdtstore/internal/types"
)

func testSchema(t *testing.T) *types.Schema {
	t.Helper()
	return types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "name", Kind: types.String},
		{Name: "price", Kind: types.Float64},
	}, []int{0})
}

func buildSegment(t *testing.T, path string) (*Segment, [][]byte) {
	t.Helper()
	schema := testSchema(t)
	w, err := CreateSegment(path, schema, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	blocks := [][]byte{
		[]byte("col0-blk0-xxxxxxxx"), []byte("col1-blk0"), []byte("col2-blk0-yy"),
		[]byte("col0-blk1"), []byte("col1-blk1-zzzz"), []byte("col2-blk1"),
	}
	for blk := 0; blk < 2; blk++ {
		for col := 0; col < 3; col++ {
			z := Zone{Kind: ZoneInt, MinI: int64(blk * 10), MaxI: int64(blk*10 + 9)}
			if err := w.AppendBlock(col, blocks[blk*3+col], z); err != nil {
				t.Fatal(err)
			}
		}
	}
	sparse := []types.Row{
		{types.Int(1)},
		{types.Int(5)},
	}
	seg, err := w.Finish(7, sparse)
	if err != nil {
		t.Fatal(err)
	}
	return seg, blocks
}

func TestSegmentRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-1.seg")
	seg, blocks := buildSegment(t, path)
	seg.Close()

	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.NRows() != 7 || seg.BlockRows() != 4 || !seg.Compressed() {
		t.Fatalf("meta mismatch: nrows=%d blockRows=%d compressed=%v", seg.NRows(), seg.BlockRows(), seg.Compressed())
	}
	if seg.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", seg.NumBlocks())
	}
	if got := seg.Schema(); got.NumCols() != 3 || got.Cols[1].Name != "name" || got.Cols[2].Kind != types.Float64 {
		t.Fatalf("schema mismatch: %v", got)
	}
	if sp := seg.Sparse(); len(sp) != 2 || types.CompareRows(sp[1], types.Row{types.Int(5)}) != 0 {
		t.Fatalf("sparse mismatch: %v", sp)
	}
	if z, ok := seg.Zone(2, 1); !ok || z.Kind != ZoneInt || z.MinI != 10 || z.MaxI != 19 {
		t.Fatalf("zone mismatch: %+v ok=%v", z, ok)
	}
	for blk := 0; blk < 2; blk++ {
		for col := 0; col < 3; col++ {
			want := blocks[blk*3+col]
			got, err := seg.ReadBlock(col, blk)
			if err != nil {
				t.Fatalf("ReadBlock(%d,%d): %v", col, blk, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("ReadBlock(%d,%d) = %q, want %q", col, blk, got, want)
			}
			if seg.BlockLen(col, blk) != len(want) {
				t.Fatalf("BlockLen(%d,%d) = %d, want %d", col, blk, seg.BlockLen(col, blk), len(want))
			}
		}
	}
}

func TestSegmentEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-empty.seg")
	schema := testSchema(t)
	w, err := CreateSegment(path, schema, 8192, false)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := w.Finish(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seg.Close()
	seg, err = OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.NRows() != 0 || seg.NumBlocks() != 0 {
		t.Fatalf("empty segment: nrows=%d blocks=%d", seg.NRows(), seg.NumBlocks())
	}
}

// TestSegmentDetectsBlockCorruption flips one byte inside a block: the read
// of that block must fail its checksum while the footer still opens fine.
func TestSegmentDetectsBlockCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-corrupt.seg")
	seg, _ := buildSegment(t, path)
	off := seg.index[1][0].Off
	seg.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seg, err = OpenSegment(path)
	if err != nil {
		t.Fatalf("footer should still open: %v", err)
	}
	defer seg.Close()
	if _, err := seg.ReadBlock(1, 0); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt block read: err = %v, want checksum mismatch", err)
	}
	if _, err := seg.ReadBlock(0, 0); err != nil {
		t.Fatalf("untouched block must read fine: %v", err)
	}
}

// TestSegmentRejectsPartialFile truncates the file at every suffix boundary
// that removes part of the trailer or footer: OpenSegment must refuse all of
// them (a crashed checkpoint leaves exactly such a file behind).
func TestSegmentRejectsPartialFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-torn.seg")
	seg, _ := buildSegment(t, path)
	seg.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data) - 1; cut >= 0; cut -= 7 {
		torn := filepath.Join(dir, "torn.seg")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := OpenSegment(torn); err == nil {
			s.Close()
			t.Fatalf("OpenSegment accepted a file truncated to %d/%d bytes", cut, len(data))
		}
	}
}

func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadManifest(dir); err != nil || ok {
		t.Fatalf("fresh dir: ok=%v err=%v, want absent", ok, err)
	}
	m := Manifest{Generation: 3, Shards: []ShardEntry{{
		Segment: "seg-0000000000000003-s0.seg", Segments: []string{"seg-0000000000000003-s0.seg"}, LSN: 42,
	}}}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest = %+v, want %+v", got, m)
	}
	// Overwrite with the next generation: the swap replaces, never appends.
	m2 := Manifest{Generation: 4, Shards: []ShardEntry{{
		Segment: "seg-0000000000000004-s0.seg", Segments: []string{"seg-0000000000000004-s0.seg"}, LSN: 99,
	}}}
	if err := WriteManifest(dir, m2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := LoadManifest(dir); !reflect.DeepEqual(got, m2) {
		t.Fatalf("manifest after swap = %+v, want %+v", got, m2)
	}
}

func TestManifestCorruptIsError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir); err == nil {
		t.Fatal("corrupt manifest must be an error, not a fresh-store signal")
	}
}
