// Package store implements the persistent, content-addressed result
// store behind warm-start exploration: a directory of versioned,
// append-only JSONL segments holding measured metric vectors keyed by
// canonical configuration identity (the engine's memo key — the memo
// namespace joined with Config.Key, addressed by the 64-bit FNV-1a
// digest of that memo key).
//
// The store is the exploration memo's record tier (see
// explore.Backing): the Memo holds only measurements in flight, reads
// every finished value from the store and writes through to it after
// every fresh measurement. A rerun of an exploration — in the same
// process or days later in a CI job that restored the directory from
// a cache — therefore measures only configurations the store has
// never seen. Because measurements are deterministic,
// results are byte-identical whether a run is cold, warm, or mixed,
// at any worker count; only the evaluated/hit statistics move.
//
// # On-disk format
//
// A store directory holds any number of segment files matching
// seg-*.jsonl. Each segment begins with a header line
//
//	{"format":"flexos-result-store","version":1}
//
// followed by one record per line:
//
//	{"addr":"<16-hex FNV-1a of key>","key":"<namespace\x00 configkey>",
//	 "metrics":{...},"sum":"<8-hex CRC-32 of addr+key+metrics>"}
//
// One record codec writes and reads every record line. The line is
// exactly encoding/json's rendering of those four fields, and the
// reader accepts only that spelling: it scans the fields in place and
// checks the address and checksum without reflection. A line it cannot
// parse is damaged.
//
// Nothing in a segment is trusted: a file whose header is missing,
// unparsable, names a foreign format, or carries a version this build
// does not know is quarantined — skipped whole, counted in
// Stats.QuarantinedFiles, never deleted. Within a healthy segment,
// the first record that fails to parse, whose checksum or address does
// not match, or that is truncated mid-line ends the segment: the
// records before it load, the rest is counted in
// Stats.CorruptRecords. Corruption is therefore never fatal and never
// poisons an exploration — a damaged entry is simply re-measured and
// re-appended by the next warm run.
//
// # Arrival order
//
// Beside its index a Store keeps every key in arrival order: the keys
// loaded at Open (segments in lexical order, records in file order),
// then each key it newly accepts. That list is the store-sync log a
// flexos-serve daemon pages out to its peers (Page), so a peer asks
// for "everything after cursor N" instead of re-shipping the store.
// The order is local to one handle and carries no meaning; only the
// (key, metrics) records travel.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"unicode/utf8"

	"flexos/internal/scenario"
)

// Format identity of segment files. Version bumps whenever the record
// schema changes incompatibly; older builds quarantine newer segments
// rather than misread them.
const (
	FormatName = "flexos-result-store"
	Version    = 1
)

// header is the first line of every segment.
type header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

// Record is one measurement addressed by its full memo key (namespace
// NUL-joined with the configuration's canonical identity): the unit
// Page returns, and the JSON a peer receives from the store-sync log.
type Record struct {
	Key     string           `json:"key"`
	Metrics scenario.Metrics `json:"metrics"`
}

// Stats describes what Open found on disk and what the store has done
// since. The JSON form is part of the flexos-serve /statsz document,
// hence the snake_case tags.
type Stats struct {
	// Segments is the number of healthy segment files loaded.
	Segments int `json:"segments"`
	// Loaded counts records loaded into the index at Open.
	Loaded int `json:"loaded"`
	// QuarantinedFiles counts segment files skipped whole: missing,
	// foreign or future-version headers.
	QuarantinedFiles int `json:"quarantined_files"`
	// CorruptRecords counts records dropped from otherwise-healthy
	// segments: parse failures, checksum or address mismatches, and
	// truncated tails.
	CorruptRecords int `json:"corrupt_records"`
	// Written counts records appended by this store handle.
	Written int `json:"written"`
}

// Store is a result store: an index of measurements, in memory and,
// when opened on a directory, appended to segment files. Every method
// is safe for concurrent use: Load and Store are called from the memo
// under worker concurrency, and a long-running owner (the flexos-serve
// daemon) may Flush — or even Close — while explorations are still
// reading and writing through. The index and the segment writer are
// guarded separately, so a reader is never blocked behind an fsync:
// Load takes only the index read-lock while Flush holds only the
// writer lock.
//
// A handle that cannot append — opened read-only, made by Memory, or
// closed — is in one state: Load answers from the index, Store indexes
// in memory, and neither touches disk (a closed handle must not
// resurrect a segment file nobody will flush again).
type Store struct {
	dir string // "" for a Memory store

	// mu guards the index, the arrival order and the load-time
	// statistics (written only during open, before the handle is
	// shared).
	mu    sync.RWMutex
	index map[string]scenario.Metrics
	order []string // every indexed key, in arrival order
	stats Stats

	// wmu guards the append path: the open segment, its buffered
	// writer, the written count, the deferred write error and the
	// closed latch. Never held together with mu, so the two paths
	// cannot deadlock and readers proceed during segment fsyncs.
	wmu     sync.Mutex
	seg     *os.File
	w       *bufio.Writer
	written int
	dirty   bool  // appends since the last successful flush
	closed  bool  // appends nothing: read-only, in memory, or closed
	err     error // first deferred write error, surfaced by Flush/Close
}

// Open opens (creating if necessary) a store directory for reading and
// appending. Every healthy segment is loaded into the index; corrupt
// or unknown files are quarantined, never trusted and never removed.
func Open(dir string) (*Store, error) { return open(dir, false) }

// OpenReadOnly opens an existing store directory for reading only:
// Store indexes in memory and no segment file is created. Opening a
// directory that does not exist is an error.
func OpenReadOnly(dir string) (*Store, error) { return open(dir, true) }

// Memory returns an empty store with no directory: a Store that only
// ever indexes in memory.
func Memory() *Store {
	return &Store{index: make(map[string]scenario.Metrics), closed: true}
}

func open(dir string, readonly bool) (*Store, error) {
	if readonly {
		info, err := os.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("store: open read-only: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("store: open read-only: %s is not a directory", dir)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]scenario.Metrics), closed: readonly}
	if err := s.loadAll(); err != nil {
		return nil, err
	}
	return s, nil
}

// loadAll reads every segment in lexical order, so the index is
// deterministic for a given directory content.
func (s *Store) loadAll() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.jsonl"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.loadSegment(name); err != nil {
			return err
		}
	}
	return nil
}

// loadSegment loads one segment file, quarantining it whole on a bad
// header and truncating it logically at the first damaged record. Only
// I/O failures (not content failures) are returned as errors.
func (s *Store) loadSegment(name string) error {
	data, err := os.ReadFile(name)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(data) == 0 {
		s.stats.QuarantinedFiles++ // empty file: no header to trust
		return nil
	}
	line, rest := nextLine(data)
	var h header
	if err := json.Unmarshal(line, &h); err != nil || h.Format != FormatName || h.Version != Version {
		s.stats.QuarantinedFiles++
		return nil
	}
	s.stats.Segments++
	lines := bytes.Count(rest, []byte{'\n'}) + 1
	if len(s.index) == 0 {
		s.index = make(map[string]scenario.Metrics, lines)
	}
	s.order = slices.Grow(s.order, lines)
	var d lineDecoder
	for len(rest) > 0 {
		if line, rest = nextLine(rest); blank(line) {
			continue
		}
		key, m, ok := d.decode(line)
		if !ok {
			// First damaged record: everything after it is suspect
			// (truncation, partial append, bit rot) — drop the tail,
			// counting every record it takes with it.
			s.stats.CorruptRecords++
			for len(rest) > 0 {
				if line, rest = nextLine(rest); !blank(line) {
					s.stats.CorruptRecords++
				}
			}
			return nil
		}
		if _, dup := s.index[string(key)]; !dup {
			k := string(key)
			s.index[k] = m
			s.order = append(s.order, k)
			s.stats.Loaded++
		}
	}
	return nil
}

// nextLine splits the first line off data as bufio.ScanLines does: at
// the first newline or the end, a carriage return before the newline
// dropped.
func nextLine(data []byte) (line, rest []byte) {
	line, rest, _ = bytes.Cut(data, []byte{'\n'})
	return bytes.TrimSuffix(line, []byte{'\r'}), rest
}

// blank reports whether a line holds only white space; such lines
// carry no record and are skipped.
func blank(line []byte) bool { return len(bytes.TrimSpace(line)) == 0 }

// Addr returns the content address of a memo key: its 16-hex-digit
// FNV-1a digest, the identity the index is organized around.
func Addr(key string) string {
	return string(appendHex(make([]byte, 0, 16), fnv64a(key), 16))
}

// Load returns the stored vector for a memo key. It implements
// explore.Backing.
func (s *Store) Load(key string) (scenario.Metrics, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.index[key]
	return m, ok
}

// Store appends one measurement (write-through from the memo) and
// indexes it; a handle that cannot append indexes it in memory only.
// Write errors are deferred: they are remembered and surfaced by Flush
// or Close, so a full disk degrades the cache rather than failing the
// exploration. It implements explore.Backing.
func (s *Store) Store(key string, m scenario.Metrics) { s.Insert(key, m) }

// Insert is Store reporting what it did: added when the key was new
// (indexed, appended to the arrival order and, on a writable handle,
// to the segment), conflict when the key was already indexed under a
// different vector. The first value always wins — it is the one this
// store's readers have already been served. A key that is not valid
// UTF-8 has no segment spelling that reads back as itself, so it is
// indexed in memory only, as on a handle that cannot append.
func (s *Store) Insert(key string, m scenario.Metrics) (added, conflict bool) {
	s.mu.Lock()
	if cur, dup := s.index[key]; dup {
		s.mu.Unlock()
		return false, cur != m
	}
	s.index[key] = m
	s.order = append(s.order, key)
	s.mu.Unlock()
	s.append(key, m)
	return true, false
}

// append writes one record to the handle's segment, opening it on
// first use; on a handle that cannot append, or for a key that is not
// valid UTF-8 (the codec would write it as another key), it does
// nothing.
func (s *Store) append(key string, m scenario.Metrics) {
	if !utf8.ValidString(key) {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed || s.err != nil {
		return
	}
	if s.w == nil {
		if err := s.openSegmentLocked(); err != nil {
			s.err = err
			return
		}
	}
	line, err := appendRecord(s.w.AvailableBuffer(), key, &m)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(line); err != nil {
		s.err = fmt.Errorf("store: %w", err)
		return
	}
	s.written++
	s.dirty = true
}

// openSegmentLocked creates a fresh segment for this handle's appends,
// named after the next free index so concurrent shard runs into
// sibling directories never collide.
func (s *Store) openSegmentLocked() error {
	for i := 1; ; i++ {
		name := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.jsonl", i))
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.seg = f
		s.w = bufio.NewWriter(f)
		hdr, _ := json.Marshal(header{Format: FormatName, Version: Version})
		if _, err := s.w.Write(append(hdr, '\n')); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return nil
	}
}

// Flush forces buffered appends to disk and reports the first deferred
// write error. It holds only the writer lock, so concurrent Load and
// Store calls proceed while the segment syncs — a long-running server
// can flush after every request without stalling in-flight
// explorations — and it is a no-op when nothing was appended since
// the last flush, so warm, all-hit traffic costs no fsyncs at all.
func (s *Store) Flush() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.w != nil && s.dirty {
		if err := s.w.Flush(); err != nil && s.err == nil {
			s.err = fmt.Errorf("store: %w", err)
		}
		if err := s.seg.Sync(); err != nil && s.err == nil {
			s.err = fmt.Errorf("store: %w", err)
		}
		if s.err == nil {
			s.dirty = false
		}
	}
	return s.err
}

// Close flushes and closes the open segment. Afterwards the handle
// appends nothing — a straggling Store call indexes in memory — and
// Load keeps working off the index.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	err := s.flushLocked()
	if s.seg != nil {
		if cerr := s.seg.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("store: %w", cerr)
		}
		s.seg, s.w = nil, nil
	}
	s.closed = true
	return err
}

// Len returns the number of indexed measurements.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Page returns up to limit records of the arrival order after cursor
// since, the cursor after them, and whether more follow. A cursor
// outside [0, Len()] restarts from the head.
func (s *Store) Page(since, limit int) (recs []Record, next int, more bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if since < 0 || since > len(s.order) {
		since = 0
	}
	next = min(since+limit, len(s.order))
	recs = make([]Record, 0, next-since)
	for _, key := range s.order[since:next] {
		recs = append(recs, Record{Key: key, Metrics: s.index[key]})
	}
	return recs, next, next < len(s.order)
}

// Keys returns every indexed memo key, sorted.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the open/write statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := s.stats
	s.mu.RUnlock()
	s.wmu.Lock()
	st.Written = s.written
	s.wmu.Unlock()
	return st
}

// Dir returns the directory the store was opened on ("" for Memory).
func (s *Store) Dir() string { return s.dir }
