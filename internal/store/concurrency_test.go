package store

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"flexos/internal/scenario"
)

// Concurrency regressions for the serving use case: one long-lived
// store handle shared by many explorations, with the owner flushing
// (and eventually closing) while workers are still reading and
// writing through.

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestStoreAfterCloseAppendsNothing pins the shutdown bug: a Store
// call racing Close used to find the writer nil and quietly open a
// fresh segment whose buffered bytes nobody would ever flush —
// leaving a stray, quarantined-on-reopen file behind. After Close,
// Store must degrade to the in-memory index.
func TestStoreAfterCloseAppendsNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Store("k1", scenario.Metrics{Throughput: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s.Store("k2", scenario.Metrics{Throughput: 2})
	if m, ok := s.Load("k2"); !ok || m.Throughput != 2 {
		t.Fatalf("post-close Store lost the in-memory entry: %v %v", m, ok)
	}
	if n := len(segFiles(t, dir)); n != 1 {
		t.Fatalf("post-close Store touched disk: %d segment files, want 1", n)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Load("k1"); !ok {
		t.Fatal("k1 not persisted")
	}
	if _, ok := re.Load("k2"); ok {
		t.Fatal("post-close k2 leaked to disk")
	}
	if st := re.Stats(); st.QuarantinedFiles != 0 || st.CorruptRecords != 0 {
		t.Fatalf("reopen found damage: %+v", st)
	}
}

// TestStoreReadWhileFlushHammer drives Load/Store/Len/Stats/Page from many
// goroutines while another loops Flush — the daemon's steady state.
// Run under -race this is the regression net for the split
// index/writer locking; it also asserts no write is lost.
func TestStoreReadWhileFlushHammer(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	flusherDone := make(chan struct{})
	go func() { // the owner, flushing on its own cadence
		defer close(flusherDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-%d", g, i)
				s.Store(key, scenario.Metrics{Throughput: float64(g*perWriter + i)})
				if _, ok := s.Load(key); !ok {
					t.Errorf("own write %s not readable", key)
					return
				}
				s.Load(fmt.Sprintf("w%d-%d", (g+1)%writers, i)) // racing reader
				s.Len()
				s.Stats()
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) { // pure readers during write-through
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Load(fmt.Sprintf("w%d-%d", g, i))
				s.Page(i, 16) // a peer pulling
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-flusherDone

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := re.Len(), writers*perWriter; got != want {
		t.Fatalf("reopened store holds %d records, want %d", got, want)
	}
	if st := re.Stats(); st.QuarantinedFiles != 0 || st.CorruptRecords != 0 {
		t.Fatalf("hammer left damage on disk: %+v", st)
	}
}
