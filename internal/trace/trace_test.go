package trace_test

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"flexos/internal/trace"
)

// fixturePath is the checked-in 30-second synthetic trace CI replays
// against the compose cluster; the fuzzer seeds from it too, so the
// corpus always covers the exact bytes production jobs consume.
const fixturePath = "../../ci/traces/smoke-30s.jsonl"

// smallTrace synthesizes a deterministic few-event trace for tests.
func smallTrace(t testing.TB, seed int64) *trace.Trace {
	t.Helper()
	tr, err := trace.Synthesize(trace.DiurnalSpec(seed, 8000))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := smallTrace(t, 42)
	b := smallTrace(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (spec, seed) synthesized different traces")
	}
	c := smallTrace(t, 43)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds synthesized identical traces")
	}
	if len(a.Events) == 0 {
		t.Fatal("no events")
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].AtMs < a.Events[i-1].AtMs {
			t.Fatalf("events out of order at %d: %d < %d", i, a.Events[i].AtMs, a.Events[i-1].AtMs)
		}
	}
	if got := a.Phases(); !reflect.DeepEqual(got, []string{"night", "day", "crowd"}) {
		t.Fatalf("phases = %v", got)
	}
	// Every shipped shape synthesizes cleanly at a CI-sized duration.
	for name, shape := range trace.Shapes {
		if _, err := trace.Synthesize(shape(7, 30000)); err != nil {
			t.Errorf("shape %s: %v", name, err)
		}
	}
}

func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	tr := smallTrace(t, 42)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, st, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.CorruptEvents != 0 || st.Events != len(tr.Events) {
		t.Fatalf("stats = %+v, want %d clean events", st, len(tr.Events))
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("decode(encode(t)) != t")
	}
	var again bytes.Buffer
	if err := got.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("encode not byte-stable across a round trip")
	}
}

func TestDecodeQuarantine(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"not json":       "hello\n",
		"foreign format": `{"format":"flexos-result-store","version":1}` + "\n",
		"future version": fmt.Sprintf(`{"format":%q,"version":%d}`, trace.FormatName, trace.Version+1) + "\n",
	}
	for name, in := range cases {
		tr, _, err := trace.Decode(strings.NewReader(in))
		if err == nil || tr != nil {
			t.Errorf("%s: decode accepted (err=%v)", name, err)
			continue
		}
		if !strings.Contains(err.Error(), "quarantined") {
			t.Errorf("%s: error %v does not mark quarantine", name, err)
		}
	}
}

func TestDecodeCorruptionTruncates(t *testing.T) {
	tr := smallTrace(t, 42)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("trace too small to corrupt: %d lines", len(lines))
	}
	corrupt := func(t *testing.T, mutate func([]string) []string, wantPrefix int) {
		t.Helper()
		in := strings.Join(mutate(append([]string(nil), lines...)), "\n") + "\n"
		got, st, err := trace.Decode(strings.NewReader(in))
		if err != nil {
			t.Fatalf("corruption must truncate, not fail: %v", err)
		}
		if st.Events != wantPrefix {
			t.Errorf("loaded %d events, want the %d-event prefix", st.Events, wantPrefix)
		}
		if st.CorruptEvents == 0 {
			t.Error("corruption not counted")
		}
		if !reflect.DeepEqual(got.Events, tr.Events[:wantPrefix]) {
			t.Error("surviving prefix differs from the original events")
		}
	}
	t.Run("flipped checksum", func(t *testing.T) {
		corrupt(t, func(ls []string) []string {
			ls[3] = strings.Replace(ls[3], `"sum":"`, `"sum":"f`, 1)
			return ls
		}, 2)
	})
	t.Run("malformed json", func(t *testing.T) {
		corrupt(t, func(ls []string) []string {
			ls[2] = ls[2][:len(ls[2])/2]
			return ls
		}, 1)
	})
	t.Run("time regression", func(t *testing.T) {
		// Swap two event lines: both checksums stay valid, but the
		// timeline runs backwards where the earlier event lands.
		ls := append([]string(nil), lines...)
		ls[2], ls[4] = ls[4], ls[2]
		got, st, err := trace.Decode(strings.NewReader(strings.Join(ls, "\n") + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		// Events 0 and 3 still read in order; the displaced earlier
		// event is the regression that truncates the rest.
		want := []trace.Event{tr.Events[0], tr.Events[3]}
		if !reflect.DeepEqual(got.Events, want) {
			t.Errorf("loaded %d events, want the two in-order survivors", len(got.Events))
		}
		if st.CorruptEvents == 0 {
			t.Error("regression not counted")
		}
	})
	t.Run("truncation drops everything after", func(t *testing.T) {
		in := strings.Join(append(lines[:3], "garbage", lines[3]), "\n") + "\n"
		_, st, err := trace.Decode(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if st.Events != 2 || st.CorruptEvents != 2 {
			t.Errorf("stats = %+v, want 2 events and 2 corrupt lines", st)
		}
	})
}

func TestBuildSchedule(t *testing.T) {
	tr := smallTrace(t, 42)
	base := trace.BuildSchedule(tr, trace.ScheduleOpts{})
	if len(base) != len(tr.Events) {
		t.Fatalf("schedule has %d entries for %d events", len(base), len(tr.Events))
	}
	for i, s := range base {
		if s.Index != i || s.AtMs != tr.Events[i].AtMs {
			t.Fatalf("entry %d = %+v, want index %d at %dms", i, s, i, tr.Events[i].AtMs)
		}
	}
	fast := trace.BuildSchedule(tr, trace.ScheduleOpts{Speedup: 4})
	for i := range fast {
		if want := tr.Events[i].AtMs / 4; fast[i].AtMs != want {
			t.Fatalf("speedup 4: entry %d at %dms, want %dms", i, fast[i].AtMs, want)
		}
	}
	rated := trace.BuildSchedule(tr, trace.ScheduleOpts{Rate: 10})
	for i := range rated {
		if want := int64(i * 100); rated[i].AtMs != want {
			t.Fatalf("rate 10: entry %d at %dms, want %dms", i, rated[i].AtMs, want)
		}
	}
	cut := trace.BuildSchedule(tr, trace.ScheduleOpts{DurationMs: 3000})
	if len(cut) == 0 || len(cut) >= len(base) {
		t.Fatalf("duration cut kept %d of %d entries", len(cut), len(base))
	}
	for _, s := range cut {
		if s.AtMs > 3000 {
			t.Fatalf("entry past the duration cap: %+v", s)
		}
	}
	// The schedule is a pure function of (trace, opts): two builds
	// dump byte-identical sequences — the request-sequence half of the
	// determinism contract, with no server involved.
	var d1, d2 bytes.Buffer
	if err := trace.DumpSchedule(&d1, base); err != nil {
		t.Fatal(err)
	}
	if err := trace.DumpSchedule(&d2, trace.BuildSchedule(tr, trace.ScheduleOpts{})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1.Bytes(), d2.Bytes()) {
		t.Fatal("schedule dump not byte-identical across builds")
	}
}

func TestFixtureDecodesClean(t *testing.T) {
	tr, st, err := trace.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("checked-in fixture: %v", err)
	}
	if st.CorruptEvents != 0 {
		t.Fatalf("checked-in fixture has %d corrupt events", st.CorruptEvents)
	}
	if tr.DurationMs() < 25000 || tr.DurationMs() > 30000 {
		t.Errorf("fixture spans %dms, want a ~30s trace", tr.DurationMs())
	}
	if len(tr.Phases()) < 2 {
		t.Errorf("fixture has %d phases, want a multi-phase schedule", len(tr.Phases()))
	}
}

// FuzzDecodeTrace asserts the codec's safety contract on arbitrary
// bytes: never panic, never return both a trace and a quarantine
// error, and anything that decodes re-encodes into a byte-stable
// canonical form that decodes to the same value.
func FuzzDecodeTrace(f *testing.F) {
	fixture, err := os.ReadFile(fixturePath)
	if err != nil {
		f.Fatalf("checked-in fixture must seed the corpus: %v", err)
	}
	f.Add(fixture)
	var buf bytes.Buffer
	tr, err := trace.Synthesize(trace.FlashSpec(3, 4000))
	if err != nil || tr.Encode(&buf) != nil {
		f.Fatalf("synthesize seed: %v", err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(fmt.Sprintf(`{"format":%q,"version":%d}`+"\n", trace.FormatName, trace.Version)))
	f.Add([]byte(`{"format":"flexos-trace","version":1}` + "\n" + `{"at_ms":5,"phase":"p","request":{"app":"redis"},"sum":"00000000"}` + "\n"))
	f.Add([]byte("\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, st, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			if tr != nil {
				t.Fatal("decode returned both a trace and an error")
			}
			return
		}
		if st.Events != len(tr.Events) {
			t.Fatalf("stats count %d != %d events", st.Events, len(tr.Events))
		}
		for i := 1; i < len(tr.Events); i++ {
			if tr.Events[i].AtMs < tr.Events[i-1].AtMs {
				t.Fatal("decoded events out of order")
			}
		}
		var enc bytes.Buffer
		if err := tr.Encode(&enc); err != nil {
			t.Fatalf("re-encode of a decoded trace failed: %v", err)
		}
		tr2, st2, err := trace.Decode(bytes.NewReader(enc.Bytes()))
		if err != nil || st2.CorruptEvents != 0 {
			t.Fatalf("canonical encoding failed to decode: %v (stats %+v)", err, st2)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatal("decode∘encode not the identity on decoded traces")
		}
	})
}
