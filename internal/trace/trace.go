// Package trace gives the serving stack a traffic dimension: a
// versioned, checksummed JSONL trace format of timestamped exploration
// requests, a deterministic seeded synthesizer that composes the
// scenario library into phase schedules (diurnal ramps, flash crowds,
// phase shifts), and the replay machinery flexos-loadgen drives
// against a flexos-serve daemon or a cluster coordinator.
//
// A trace file is one JSON document per line:
//
//	{"format":"flexos-trace","version":1,"name":…,"seed":…}
//	{"at_ms":0,"phase":"night","request":{…},"sum":"crc32hex"}
//	{"at_ms":740,"phase":"night","request":{…},"sum":"crc32hex"}
//	…
//
// The header names the format and its version; every event carries a
// CRC-32 checksum over its timestamp, phase and request bytes. The
// decoder mirrors internal/store's damage semantics: a missing,
// foreign or future-versioned header quarantines the whole file
// (ErrQuarantined — the data may be valuable, but it is not ours to
// guess at), while a corrupt event line truncates the trace at the
// last good event — the events before it load, the rest is counted in
// Stats.CorruptEvents and never served.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"flexos/internal/cli"
)

// Format identity of a trace file's header line.
const (
	FormatName = "flexos-trace"
	Version    = 1
)

// MaxEventBytes caps one trace line; requests themselves are already
// capped at cli.MaxRequestBytes, the rest is envelope.
const MaxEventBytes = cli.MaxRequestBytes + 4096

// ErrQuarantined marks a file the decoder refused to touch: no header,
// a foreign format name, or a version newer than this build writes.
var ErrQuarantined = errors.New("trace: quarantined")

// Event is one timestamped request of a trace: at AtMs milliseconds
// into the trace, a client issues Request. Phase labels the traffic
// regime the synthesizer (or recorder) assigned, so replay reports can
// break latency out per phase.
type Event struct {
	AtMs    int64
	Phase   string
	Request cli.Request
}

// Trace is a decoded trace: identity plus events in non-decreasing
// timestamp order.
type Trace struct {
	Name        string
	Seed        int64
	Description string
	Events      []Event
}

// Stats reports what a decode survived.
type Stats struct {
	// Events is the number of events loaded.
	Events int
	// CorruptEvents counts trailing lines dropped at the truncation
	// point: the first line with a bad checksum, malformed JSON, an
	// invalid request or a time regression, plus everything after it.
	CorruptEvents int
}

// DurationMs is the trace-time span: the timestamp of the last event.
func (t *Trace) DurationMs() int64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].AtMs
}

// Phases lists the distinct phase labels in first-appearance order.
func (t *Trace) Phases() []string {
	seen := make(map[string]struct{})
	var out []string
	for _, ev := range t.Events {
		if _, dup := seen[ev.Phase]; !dup {
			seen[ev.Phase] = struct{}{}
			out = append(out, ev.Phase)
		}
	}
	return out
}

// header is the first line of a trace file.
type header struct {
	Format      string `json:"format"`
	Version     int    `json:"version"`
	Name        string `json:"name,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	Description string `json:"description,omitempty"`
}

// wireEvent is one event line. Request stays raw so the checksum
// covers the exact bytes on disk.
type wireEvent struct {
	AtMs    int64           `json:"at_ms"`
	Phase   string          `json:"phase,omitempty"`
	Request json.RawMessage `json:"request"`
	Sum     string          `json:"sum"`
}

// eventSum checksums an event's identity: timestamp, phase and the
// request bytes, NUL-separated (none of the fields may contain NUL —
// JSON escapes it).
func eventSum(atMs int64, phase string, request []byte) string {
	h := crc32.NewIEEE()
	fmt.Fprintf(h, "%d\x00%s\x00", atMs, phase)
	h.Write(request)
	return fmt.Sprintf("%08x", h.Sum32())
}

// Encode writes the trace in the canonical on-disk form: requests are
// normalized and canonically encoded, so Encode∘Decode is the identity
// on the bytes and Decode∘Encode the identity on the value.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(header{Format: FormatName, Version: Version, Name: t.Name, Seed: t.Seed, Description: t.Description})
	if err != nil {
		return fmt.Errorf("trace: encode header: %w", err)
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	for i, ev := range t.Events {
		if i > 0 && ev.AtMs < t.Events[i-1].AtMs {
			return fmt.Errorf("trace: encode: event %d at %dms precedes event %d at %dms", i, ev.AtMs, i-1, t.Events[i-1].AtMs)
		}
		req := ev.Request.Encode()
		line, err := json.Marshal(wireEvent{AtMs: ev.AtMs, Phase: ev.Phase, Request: req, Sum: eventSum(ev.AtMs, ev.Phase, req)})
		if err != nil {
			return fmt.Errorf("trace: encode event %d: %w", i, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Decode reads a trace. A bad header returns an error wrapping
// ErrQuarantined and no trace; a corrupt event truncates — the events
// decoded so far return, with the dropped line count in
// Stats.CorruptEvents, and err stays nil (damage downstream of the
// header is data loss to report, not a reason to refuse the prefix).
func Decode(r io.Reader) (*Trace, Stats, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxEventBytes)
	if !sc.Scan() {
		return nil, Stats{}, fmt.Errorf("%w: empty input (no header)", ErrQuarantined)
	}
	var hdr header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, Stats{}, fmt.Errorf("%w: unreadable header: %v", ErrQuarantined, err)
	}
	if hdr.Format != FormatName {
		return nil, Stats{}, fmt.Errorf("%w: format %q is not %q", ErrQuarantined, hdr.Format, FormatName)
	}
	if hdr.Version > Version {
		return nil, Stats{}, fmt.Errorf("%w: version %d is newer than this build's %d", ErrQuarantined, hdr.Version, Version)
	}
	t := &Trace{Name: hdr.Name, Seed: hdr.Seed, Description: hdr.Description}
	var st Stats
	truncated := false
	for sc.Scan() {
		if truncated {
			st.CorruptEvents++
			continue
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, ok := decodeEvent(line, t)
		if !ok {
			truncated = true
			st.CorruptEvents++
			continue
		}
		t.Events = append(t.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, Stats{}, fmt.Errorf("trace: read: %w", err)
	}
	st.Events = len(t.Events)
	return t, st, nil
}

// decodeEvent validates one event line against the trace so far: JSON
// shape, checksum, a request that fully decodes under the serving
// guardrails, and a timestamp that does not regress.
func decodeEvent(line []byte, t *Trace) (Event, bool) {
	var we wireEvent
	if err := json.Unmarshal(line, &we); err != nil {
		return Event{}, false
	}
	if we.AtMs < 0 || len(we.Request) == 0 || len(we.Request) > cli.MaxRequestBytes {
		return Event{}, false
	}
	if we.Sum != eventSum(we.AtMs, we.Phase, we.Request) {
		return Event{}, false
	}
	req, err := cli.DecodeRequest(we.Request)
	if err != nil {
		return Event{}, false
	}
	if n := len(t.Events); n > 0 && we.AtMs < t.Events[n-1].AtMs {
		return Event{}, false
	}
	return Event{AtMs: we.AtMs, Phase: we.Phase, Request: req}, true
}

// ReadFile decodes the trace at path.
func ReadFile(path string) (*Trace, Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Stats{}, err
	}
	defer f.Close()
	return Decode(f)
}

// WriteFile encodes the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
