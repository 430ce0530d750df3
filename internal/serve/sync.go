package serve

import (
	"sync"
	"time"

	"flexos"
	"flexos/internal/cli"
)

// pullPageSize bounds one /v1/store/pull page; pullMaxPagesPerRound
// bounds how far one puller tick chases a hot log before yielding.
const (
	pullPageSize         = 2048
	pullMaxPagesPerRound = 64
)

// ingest replays peer records into the store (the memo's backing):
// new keys are appended, identical duplicates are no-ops, disagreeing
// duplicates are dropped and counted — the local value wins, because
// this node's flights already served it.
func (s *Server) ingest(recs []cli.Record) {
	var added, conflicts int64
	for _, rec := range recs {
		a, c := s.st.Insert(rec.Key, rec.Metrics)
		if a {
			added++
		} else if c {
			conflicts++
		}
	}
	s.mu.Lock()
	s.stats.RecordsIngested += added
	s.stats.IngestConflicts += conflicts
	s.mu.Unlock()
}

// fleetBacking is the memo backing of a coordinator flight that may
// fan out: the server's store, which on the flight's first miss
// gathers the request's records from the fleet, once, and ingests
// them before answering. The engine looks a record up only when its
// pass needs it, so a request the store already covers sends no worker
// anything, and keys pruning never reaches trigger nothing. A record
// the fleet failed to deliver stays a miss, which the pass measures
// itself — the same bytes, by determinism. Gathered records are
// backing hits, so a run's statistics read as if they were stored.
//
// The memo over it is the flight's own, so concurrent coordinator
// flights do not join each other's in-flight measurements: a key the
// fleet failed to deliver to both may be measured twice, and the
// store keeps one copy.
type fleetBacking struct {
	s    *Server
	f    *flight
	once sync.Once
}

func (b *fleetBacking) Load(key string) (flexos.Metrics, bool) {
	if mx, ok := b.s.st.Load(key); ok {
		return mx, true
	}
	b.once.Do(func() {
		if recs, err := b.s.cfg.Cluster.Gather(b.f.ctx, b.f.creq); err == nil {
			b.s.ingest(recs)
		}
	})
	return b.s.st.Load(key)
}

func (b *fleetBacking) Store(key string, mx flexos.Metrics) { b.s.st.Store(key, mx) }

// page renders one pull page: the store's records after cursor since
// under generation gen. A stale or empty generation (a restarted
// server, a first pull) or an out-of-range cursor resets to the head
// — the puller re-ships everything, and ingest dedups it.
func (s *Server) page(gen string, since int) cli.PullPage {
	if gen != s.gen {
		since = 0
	}
	recs, next, more := s.st.Page(since, pullPageSize)
	return cli.PullPage{Gen: s.gen, Cursor: next, More: more, Records: recs}
}

// StartPull launches the store-sync puller against a peer daemon:
// every interval it drains the peer's sync log (paged, bounded per
// round) and ingests the records, so this node warm-starts from any
// other node's measurements. It stops when the server closes.
func (s *Server) StartPull(peer string, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	client := &cli.Client{BaseURL: peer, Retry: cli.DefaultRetry}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		gen, cursor := "", 0
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.baseCtx.Done():
				return
			case <-t.C:
			}
			for page := 0; page < pullMaxPagesPerRound; page++ {
				pg, err := client.Pull(s.baseCtx, gen, cursor)
				if err != nil {
					if s.baseCtx.Err() == nil {
						s.mu.Lock()
						s.stats.PullErrors++
						s.mu.Unlock()
					}
					break
				}
				gen, cursor = pg.Gen, pg.Cursor
				s.ingest(pg.Records)
				s.mu.Lock()
				s.stats.PullPages++
				s.mu.Unlock()
				if !pg.More {
					break
				}
			}
		}
	}()
}
