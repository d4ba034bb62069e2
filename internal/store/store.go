// Package store is a small embedded JSON document store standing in for
// the MongoDB instance that the original MDM uses for system metadata
// (paper §2.5). It provides named collections of JSON documents with
// auto-assigned IDs, query-by-example matching, and atomic-rename
// persistence to disk.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Doc is one stored document. The store assigns the "_id" field.
type Doc map[string]any

// ID returns the document's id, 0 when unsaved.
func (d Doc) ID() int64 {
	switch v := d["_id"].(type) {
	case int64:
		return v
	case float64: // after JSON round trip
		return int64(v)
	}
	return 0
}

// Store is a set of named collections. It is safe for concurrent use.
// A Store with an empty dir is purely in-memory.
type Store struct {
	mu   sync.RWMutex
	dir  string
	cols map[string]*collection
}

type collection struct {
	NextID int64         `json:"next_id"`
	Docs   map[int64]Doc `json:"docs"`
}

// Open loads (or creates) a store rooted at dir; empty dir means
// in-memory only.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, cols: map[string]*collection{}}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		name := e.Name()[:len(e.Name())-len(".json")]
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: read collection %s: %w", name, err)
		}
		var col struct {
			NextID int64 `json:"next_id"`
			Docs   []Doc `json:"docs"`
		}
		if err := json.Unmarshal(data, &col); err != nil {
			return nil, fmt.Errorf("store: corrupt collection %s: %w", name, err)
		}
		c := &collection{NextID: col.NextID, Docs: map[int64]Doc{}}
		for _, d := range col.Docs {
			c.Docs[d.ID()] = d
		}
		s.cols[name] = c
	}
	return s, nil
}

func (s *Store) col(name string) *collection {
	c, ok := s.cols[name]
	if !ok {
		c = &collection{NextID: 1, Docs: map[int64]Doc{}}
		s.cols[name] = c
	}
	return c
}

// Insert adds a document to a collection and returns its assigned id.
func (s *Store) Insert(colName string, d Doc) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.col(colName)
	id := c.NextID
	c.NextID++
	nd := Doc{}
	for k, v := range d {
		nd[k] = v
	}
	nd["_id"] = id
	c.Docs[id] = nd
	return id, s.persistLocked(colName)
}

// Get fetches a document by id.
func (s *Store) Get(colName string, id int64) (Doc, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.cols[colName]
	if !ok {
		return nil, false
	}
	d, ok := c.Docs[id]
	return d, ok
}

// Find returns documents matching the example (all example fields equal,
// with numeric coercion), sorted by id. A nil example matches all.
func (s *Store) Find(colName string, example Doc) []Doc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.cols[colName]
	if !ok {
		return nil
	}
	var out []Doc
	for _, d := range c.Docs {
		if matches(d, example) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// FindOne returns the lowest-id document matching the example. It is a
// single-pass minimum scan: unlike Find it does not materialize and sort
// the full match set.
func (s *Store) FindOne(colName string, example Doc) (Doc, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.cols[colName]
	if !ok {
		return nil, false
	}
	var best Doc
	for _, d := range c.Docs {
		if matches(d, example) && (best == nil || d.ID() < best.ID()) {
			best = d
		}
	}
	return best, best != nil
}

func matches(d, example Doc) bool {
	for k, want := range example {
		got, ok := d[k]
		if !ok || !looseEqual(got, want) {
			return false
		}
	}
	return true
}

func looseEqual(a, b any) bool {
	if fa, ok := asFloat(a); ok {
		if fb, ok := asFloat(b); ok {
			return fa == fb
		}
		return false
	}
	return a == b
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// Update replaces the non-id fields of a document, reporting whether it
// existed.
func (s *Store) Update(colName string, id int64, d Doc) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.cols[colName]
	if !ok {
		return false, nil
	}
	if _, ok := c.Docs[id]; !ok {
		return false, nil
	}
	nd := Doc{}
	for k, v := range d {
		nd[k] = v
	}
	nd["_id"] = id
	c.Docs[id] = nd
	return true, s.persistLocked(colName)
}

// Delete removes a document, reporting whether it existed.
func (s *Store) Delete(colName string, id int64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.cols[colName]
	if !ok {
		return false, nil
	}
	if _, ok := c.Docs[id]; !ok {
		return false, nil
	}
	delete(c.Docs, id)
	return true, s.persistLocked(colName)
}

// Count returns the number of documents in a collection.
func (s *Store) Count(colName string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.cols[colName]
	if !ok {
		return 0
	}
	return len(c.Docs)
}

// Collections lists collection names, sorted.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.cols))
	for n := range s.cols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// persistLocked writes one collection to disk (atomic rename). No-op for
// in-memory stores.
func (s *Store) persistLocked(colName string) error {
	if s.dir == "" {
		return nil
	}
	c := s.cols[colName]
	docs := make([]Doc, 0, len(c.Docs))
	for _, d := range c.Docs {
		docs = append(docs, d)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID() < docs[j].ID() })
	payload := struct {
		NextID int64 `json:"next_id"`
		Docs   []Doc `json:"docs"`
	}{NextID: c.NextID, Docs: docs}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", colName, err)
	}
	tmp := filepath.Join(s.dir, colName+".json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: write %s: %w", colName, err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, colName+".json")); err != nil {
		return fmt.Errorf("store: publish %s: %w", colName, err)
	}
	return nil
}
