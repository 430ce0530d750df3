package serve

import (
	"time"

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
