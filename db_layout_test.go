package pdtstore

// Store-layout tests: every store is a sharded store of N >= 1 shards with
// one manifest form. Invalid shard cuts are rejected before anything is
// written, and manifests in every older form open with identical contents
// and are rewritten in the current form by the next checkpoint.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pdtstore/internal/storage"
	"pdtstore/internal/types"
)

// TestOpenRejectsInvalidShardKeys: cuts of the wrong width, kind or order
// fail Open before bootstrap or adoption writes anything, so the directory
// stays usable with valid cuts afterwards.
func TestOpenRejectsInvalidShardKeys(t *testing.T) {
	bad := []struct {
		name   string
		shards int
		keys   []types.Row
	}{
		{"too-wide", 2, []types.Row{{types.Int(5), types.Int(6)}}},
		{"descending", 3, []types.Row{{types.Int(500)}, {types.Int(250)}}},
		{"wrong-kind", 2, []types.Row{{types.Str("500")}}},
		{"wrong-count", 3, []types.Row{{types.Int(500)}}},
	}
	for _, c := range bad {
		t.Run("bootstrap/"+c.name, func(t *testing.T) {
			dir := t.TempDir()
			if db, err := Open(dir, Options{Schema: dbSchema, Shards: c.shards, ShardKeys: c.keys}); err == nil {
				db.Close()
				t.Fatalf("Open accepted cuts %v", c.keys)
			}
			if _, found, err := storage.LoadManifest(dir); err != nil || found {
				t.Fatalf("rejected Open left a manifest behind (found=%v err=%v)", found, err)
			}
			db := openShardDB(t, dir, 2)
			defer db.Close()
			m := model{}
			sCommitInserts(t, db, m, 10, 260, 510)
			sCheckState(t, db, m)
		})
		t.Run("adopt/"+c.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openTestDB(t, dir)
			m := model{}
			commitInserts(t, db, m, 0, 400)
			commitMixed(t, db, m, 100, 200)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err := Open(dir, Options{Schema: dbSchema, Shards: c.shards, ShardKeys: c.keys}); err == nil {
				db.Close()
				t.Fatalf("adoption accepted cuts %v", c.keys)
			}
			db, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("store unusable after a rejected adoption: %v", err)
			}
			if db.Shards() != 1 {
				t.Fatalf("rejected adoption changed the layout: %d shards", db.Shards())
			}
			checkState(t, db, m)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// The same store still adopts valid cuts.
			db = openShardDB(t, dir, 3)
			defer db.Close()
			sCheckState(t, db, m)
		})
	}
}

// rewriteManifest replaces the MANIFEST of the closed store at dir with the
// given JSON document verbatim.
func rewriteManifest(t *testing.T, dir string, doc map[string]any) {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, storage.ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// manifestKeys returns the top-level keys of dir's MANIFEST as written.
func manifestKeys(t *testing.T, dir string) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, storage.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	return keys
}

// checkCurrentForm requires dir's MANIFEST to be in the one current form: a
// shards list, no flat top-level segment fields, every entry with a chain.
func checkCurrentForm(t *testing.T, dir string, shards int) {
	t.Helper()
	keys := manifestKeys(t, dir)
	for _, flat := range []string{"segment", "segments", "lsn"} {
		if _, ok := keys[flat]; ok {
			t.Fatalf("manifest still carries the flat %q field: %v", flat, keys)
		}
	}
	var entries []map[string]json.RawMessage
	if err := json.Unmarshal(keys["shards"], &entries); err != nil || len(entries) != shards {
		t.Fatalf("manifest shards = %s (%v), want %d entries", keys["shards"], err, shards)
	}
	for i, e := range entries {
		if _, ok := e["segments"]; !ok {
			t.Fatalf("manifest shard %d has no segment chain: %v", i, e)
		}
	}
}

// TestOpenUpgradesFlatManifest rewrites a store's MANIFEST in the flat form
// unsharded stores used to write — top-level segment, segments chain and
// freeze LSN, over a segment file named seg-<generation>.seg — and requires
// the store to reopen with identical rows, replay its WAL tail past the flat
// LSN, rewrite the current form at the next checkpoint, and then adopt four
// shards.
func TestOpenUpgradesFlatManifest(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	commitInserts(t, db, m, 0, 400)
	commitMixed(t, db, m, 0, 100)
	if err := db.Checkpoint(); err != nil { // full: the chain's base
		t.Fatal(err)
	}
	commitMixed(t, db, m, 300, 310)
	if err := db.Checkpoint(); err != nil { // incremental: a two-member chain
		t.Fatal(err)
	}
	commitMixed(t, db, m, 350, 400) // WAL tail past the freeze LSN
	man := db.man
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 1 || len(man.Splits) != 0 || len(man.Shards[0].Segments) != 2 {
		t.Fatalf("unsharded store manifest = %+v, want one shard, no splits, a two-member chain", man)
	}
	checkCurrentForm(t, dir, 1)

	sh := man.Shards[0]
	chain := make([]string, len(sh.Segments))
	for i, nm := range sh.Segments {
		// Legacy single-stream names: the chain's members were written by
		// the last len(chain) checkpoints.
		chain[i] = fmt.Sprintf("seg-%016x.seg", man.Generation-uint64(len(sh.Segments)-1-i))
		if err := os.Rename(filepath.Join(dir, nm), filepath.Join(dir, chain[i])); err != nil {
			t.Fatal(err)
		}
	}
	rewriteManifest(t, dir, map[string]any{
		"generation": man.Generation,
		"segment":    chain[len(chain)-1],
		"segments":   chain,
		"lsn":        sh.LSN,
	})

	db = openTestDB(t, dir)
	checkState(t, db, m)
	commitInserts(t, db, m, 1000, 1010)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkCurrentForm(t, dir, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openShardDB(t, dir, 4)
	defer db.Close()
	checkCurrentForm(t, dir, 4)
	sCheckState(t, db, m)
}

// TestOpenUpgradesShardedManifestWithoutChains rewrites a sharded store's
// MANIFEST in the form sharded stores had before incremental checkpoints —
// shard entries naming one segment, no segments chain — and requires
// identical rows on reopen and the current form after the next checkpoint.
func TestOpenUpgradesShardedManifestWithoutChains(t *testing.T) {
	dir := t.TempDir()
	db := openShardDB(t, dir, 2)
	m := model{}
	sCommitInserts(t, db, m, 10, 20, 260, 270, 600)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sCommitInserts(t, db, m, 30, 700)
	man := db.man
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	entries := make([]map[string]any, len(man.Shards))
	for i, sh := range man.Shards {
		if len(sh.Segments) != 1 {
			t.Fatalf("shard %d chain = %v, want one self-contained segment", i, sh.Segments)
		}
		entries[i] = map[string]any{"segment": sh.Segment, "lsn": sh.LSN}
	}
	rewriteManifest(t, dir, map[string]any{
		"generation": man.Generation, "shards": entries, "splits": man.Splits,
	})

	db = openShardDB(t, dir, 2)
	defer db.Close()
	sCheckState(t, db, m)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkCurrentForm(t, dir, 2)
	sCheckState(t, db, m)
}
