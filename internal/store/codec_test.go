package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"unicode/utf8"

	"flexos/internal/scenario"
)

// jsonRecord is a record line as encoding/json reads and writes it: the
// reference the codec is checked against.
type jsonRecord struct {
	Addr    string           `json:"addr"`
	Key     string           `json:"key"`
	Metrics scenario.Metrics `json:"metrics"`
	Sum     string           `json:"sum"`
}

// referenceAddr and referenceSum compute a record's address and
// checksum the way the encoding/json store did: fmt-rendered FNV-1a and
// a CRC-32 over the re-marshalled metrics.
func referenceAddr(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%016x", h.Sum64())
}

func referenceSum(r *jsonRecord) string {
	mx, _ := json.Marshal(r.Metrics)
	c := crc32.NewIEEE()
	c.Write([]byte(r.Addr))
	c.Write([]byte{0})
	c.Write([]byte(r.Key))
	c.Write([]byte{0})
	c.Write(mx)
	return fmt.Sprintf("%08x", c.Sum32())
}

// referenceLine is json.Marshal's record line for (key, m), newline
// included.
func referenceLine(key string, m scenario.Metrics) ([]byte, error) {
	r := jsonRecord{Addr: referenceAddr(key), Key: key, Metrics: m}
	r.Sum = referenceSum(&r)
	line, err := json.Marshal(r)
	return append(line, '\n'), err
}

// BitsEqual reports whether two vectors are equal bit for bit, so that
// negative zero and zero differ. The external tests use it too.
func BitsEqual(a, b scenario.Metrics) bool {
	fa := [...]float64{a.Throughput, a.P50us, a.P99us, a.MaxUs, a.Survival}
	fb := [...]float64{b.Throughput, b.P50us, b.P99us, b.MaxUs, b.Survival}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a == b
}

// FuzzSegmentLine checks the record codec against encoding/json in both
// directions:
//
//   - line: whatever the decoder accepts, json.Unmarshal and the old
//     address and checksum checks accept too, with the same key and
//     vector;
//   - key and metrics: the encoder writes exactly json.Marshal's line,
//     and the decoder reads it back bit for bit when the key is valid
//     UTF-8 (json.Marshal rewrites invalid bytes, so such a key cannot
//     reload under its own address).
func FuzzSegmentLine(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "segment.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(golden, []byte("\n"))[1:] {
		var r jsonRecord
		if json.Unmarshal(line, &r) != nil {
			continue
		}
		m := r.Metrics
		f.Add(line, r.Key, m.Throughput, m.P50us, m.P99us, m.MaxUs, m.Survival, m.PeakMemBytes, m.BootCycles, m.Cycles, m.Crossings, int64(m.Ops))
	}
	for _, key := range []string{"\xff", "a\xc3", "ns\x00\xed\xa0\x80", "\u2028\ufffd", "<script>&amp;"} {
		f.Add([]byte(`{"addr":"`+referenceAddr(key)+`"}`), key, 1e-6, 9.999999999999999e-7, 1e21, 999999999999999900000.0, math.Copysign(0, -1),
			uint64(math.MaxUint64), uint64(0), uint64(1<<53+1), uint64(10), int64(-7))
	}
	f.Fuzz(func(t *testing.T, line []byte, key string, tp, p50, p99, maxUs, surv float64, mem, boot, cycles, cross uint64, ops int64) {
		var d lineDecoder
		if k, m, ok := d.decode(line); ok {
			var r jsonRecord
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("codec accepted a line encoding/json rejects (%v): %q", err, line)
			}
			if r.Addr != referenceAddr(r.Key) || r.Sum != referenceSum(&r) {
				t.Fatalf("codec accepted a line whose address or checksum fails: %q", line)
			}
			if r.Key != string(k) || !BitsEqual(r.Metrics, m) {
				t.Fatalf("codec read %q %+v, encoding/json %q %+v from %q", k, m, r.Key, r.Metrics, line)
			}
		}

		if int64(int(ops)) != ops {
			return
		}
		m := scenario.Metrics{Throughput: tp, P50us: p50, P99us: p99, MaxUs: maxUs, Survival: surv,
			PeakMemBytes: mem, BootCycles: boot, Cycles: cycles, Crossings: cross, Ops: int(ops)}
		got, err := appendRecord(nil, key, &m)
		want, wantErr := referenceLine(key, m)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("encoder error %v, json.Marshal error %v, for %q %+v", err, wantErr, key, m)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder wrote\n%q\njson.Marshal\n%q", got, want)
		}
		k, back, ok := d.decode(got[:len(got)-1])
		if valid := utf8.ValidString(key); ok != valid || ok && (string(k) != key || !BitsEqual(back, m)) {
			t.Fatalf("decoding the encoder's line: %q %+v %v, want %q %+v (valid UTF-8 %v)", k, back, ok, key, m, valid)
		}
	})
}

// checkParseFloat checks parseFloat's verdict and value on one
// spelling against the definition: accepted exactly when appendFloat
// spells the parsed value that way, and then with that value's bits.
func checkParseFloat(t *testing.T, tok string) {
	t.Helper()
	f, rest, ok := parseFloat([]byte(`"x":`+tok+`,`), `"x":`)
	want, err := strconv.ParseFloat(tok, 64)
	finite := !math.IsNaN(want) && !math.IsInf(want, 0)
	canonical := err == nil && finite && string(appendFloat(nil, want)) == tok
	if ok != canonical || ok && (math.Float64bits(f) != math.Float64bits(want) || string(rest) != ",") {
		t.Fatalf("parseFloat(%q) = %v, %v, rest %q; canonical %v, value %v", tok, f, ok, rest, canonical, want)
	}
}

// TestParseFloatMatchesStrconv runs spellings near every branch of
// parseFloat through checkParseFloat.
func TestParseFloatMatchesStrconv(t *testing.T) {
	for _, tok := range []string{
		"0", "-0", "00", "0.0", "-0.0", "1", "10", "100000000000000000000", "1000000000000000000000",
		"1e+21", "1e21", "1e+021", "0.000001", "0.0000001", "1e-7", "1e-07", "9.999999999999999e-7",
		"0.1", "0.10", ".1", "1.", "-1.5", "+1", "1_0", "0x10", "Inf", "NaN", "1e+400", "1e-400", "+Inf", "-Inf", "inf",
		"123456789012345", "1234567890123456", "12345678901234567", "123456789012345678",
		"0.123456789012345", "0.1234567890123456", "0.30000000000000004", "0.3000000000000000444",
		"0.29999999999999999", "5e-324", "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e+308",
		"999999999999999900000", "999999999999999999999", "123456789012345670000", "9007199254740993",
		"1086716.6702094278", "0.9018181818181819", "1.0931818181818183", "0.000001234567890123", "-",
		"", "1e", "1e+", "-01", "01.5", "1.5e-10", "1.5E-10", "17.5", "17.50", "0.5", "0.05000",
	} {
		checkParseFloat(t, tok)
	}
}

// TestParseFloatRandomSpellings runs checkParseFloat on the spellings
// of random values shaped like measurements (rates and latencies
// divided out of cycle counts, and random magnitudes across the
// fixed-point range), and on the one-digit edits of each spelling.
func TestParseFloatRandomSpellings(t *testing.T) {
	rng := uint64(1)
	next := func() uint64 { // splitmix64
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := 0; i < 50_000; i++ {
		var f float64
		switch r := next(); r % 5 {
		case 0:
			f = float64(40+r>>40%200) * 2.2e9 / float64(1_000_000+r>>8%50_000_000)
		case 1:
			f = float64(r>>20) / 2200
		case 2:
			f = math.Float64frombits(r&(1<<52-1) | (1003+r>>52%90)<<52) // about 1e-6 to 1e21
		case 3: // just above an integer
			f = math.Nextafter(math.Round(math.Float64frombits(r&(1<<52-1)|(1003+r>>52%90)<<52)), math.Inf(1))
		default:
			f = float64(r>>11) / float64(pow10u[r>>4%20])
		}
		if next()%2 == 0 {
			f = -f
		}
		tok := string(appendFloat(nil, f))
		last := tok[len(tok)-1]
		for _, edit := range []string{tok, tok[:len(tok)-1], tok + "1", tok + "5", tok + "9"} {
			checkParseFloat(t, edit)
		}
		if '1' <= last && last <= '8' {
			checkParseFloat(t, tok[:len(tok)-1]+string(last-1))
			checkParseFloat(t, tok[:len(tok)-1]+string(last+1))
		}
	}
}
