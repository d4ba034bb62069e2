package segment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// ManifestFile is the name of the manifest inside a store directory.
const ManifestFile = "MANIFEST"

// Manifest describes a segment store directory: the live segments in
// apply order. Everything not reachable from the manifest — older
// segment files, temp files from an interrupted seal — is garbage and
// is swept on open.
type Manifest struct {
	// Version is the format version (currently 1).
	Version int `json:"version"`
	// Segments lists live segment file names (relative to the store
	// directory) in apply order.
	Segments []string `json:"segments"`
	// NextSeq numbers the next segment to be sealed; sequence numbers
	// only grow, so a crash between sealing and publishing can never
	// recycle a file name that a stale manifest still references.
	NextSeq uint64 `json:"next_seq"`
}

// SegmentName returns the canonical file name for sequence number seq.
func SegmentName(seq uint64) string {
	return fmt.Sprintf("seg-%06d.seg", seq)
}

// LoadManifest reads the manifest of dir. A missing manifest returns
// (nil, nil): the directory is an empty or WAL-only store.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("segment: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("segment: corrupt manifest: %w", err)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("segment: unsupported manifest version %d", m.Version)
	}
	return &m, nil
}

// Write publishes the manifest atomically: temp file, fsync, rename,
// directory fsync (best effort). After Write returns the manifest is
// the store's recovery point.
func (m *Manifest) Write(dir string) error {
	m.Version = 1
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("segment: encode manifest: %w", err)
	}
	tmp := filepath.Join(dir, ManifestFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("segment: create manifest temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("segment: write manifest temp: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("segment: sync manifest temp: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("segment: close manifest temp: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestFile)); err != nil {
		return fmt.Errorf("segment: publish manifest: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Sweep removes segment files and temp files in dir that the manifest
// does not reference — leftovers of a crash between sealing a segment
// (or writing a temp manifest) and publishing. Best effort; errors are
// ignored because garbage is harmless.
func (m *Manifest) Sweep(dir string) {
	live := make(map[string]bool, len(m.Segments))
	for _, s := range m.Segments {
		live[s] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		stale := (strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") && !live[name]) ||
			strings.HasSuffix(name, ".tmp")
		if stale {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// Clone returns a deep copy (Segments slice not shared).
func (m *Manifest) Clone() *Manifest {
	out := *m
	out.Segments = slices.Clone(m.Segments)
	return &out
}
