package storage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadManifestFile installs the file at src as a fresh directory's MANIFEST
// and loads it back.
func loadManifestFile(t *testing.T, src string) (Manifest, error) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, ok, err := LoadManifest(dir)
	if err == nil && !ok {
		t.Fatal("LoadManifest: manifest present but ok=false")
	}
	return m, err
}

// TestManifestHistoricalForms loads every historical manifest form under
// testdata/manifest (<form>.json) and requires LoadManifest to return the
// normalized form in <form>.want.json — which is also, byte for byte, what
// WriteManifest writes for it, and loads back unchanged.
func TestManifestHistoricalForms(t *testing.T) {
	inputs, err := filepath.Glob(filepath.Join("testdata", "manifest", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	forms := 0
	for _, in := range inputs {
		if strings.HasSuffix(in, ".want.json") {
			continue
		}
		forms++
		t.Run(filepath.Base(in), func(t *testing.T) {
			got, err := loadManifestFile(t, in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(strings.TrimSuffix(in, ".json") + ".want.json")
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := WriteManifest(dir, got); err != nil {
				t.Fatal(err)
			}
			written, err := os.ReadFile(filepath.Join(dir, ManifestName))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bytes.TrimSpace(written), bytes.TrimSpace(want)) {
				t.Fatalf("normalized manifest:\n got  %s\n want %s", bytes.TrimSpace(written), bytes.TrimSpace(want))
			}
			again, ok, err := LoadManifest(dir)
			if err != nil || !ok || !reflect.DeepEqual(again, got) {
				t.Fatalf("rewritten manifest reloads as %+v (ok=%v err=%v), want %+v", again, ok, err, got)
			}
			var decoded Manifest
			if err := json.Unmarshal(want, &decoded); err != nil || !reflect.DeepEqual(decoded, got) {
				t.Fatalf("want file decodes as %+v (%v), LoadManifest returned %+v", decoded, err, got)
			}
		})
	}
	if forms < 5 {
		t.Fatalf("found %d manifest forms under testdata/manifest, want at least 5", forms)
	}
}

// TestManifestRejectsInvalid requires every malformed manifest under
// testdata/manifest/bad to load as an error, never as a usable manifest.
func TestManifestRejectsInvalid(t *testing.T) {
	inputs, err := filepath.Glob(filepath.Join("testdata", "manifest", "bad", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) == 0 {
		t.Fatal("no invalid manifests under testdata/manifest/bad")
	}
	for _, in := range inputs {
		t.Run(filepath.Base(in), func(t *testing.T) {
			if m, err := loadManifestFile(t, in); err == nil {
				t.Fatalf("invalid manifest accepted: %+v", m)
			}
		})
	}
}
