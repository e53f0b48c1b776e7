package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/big"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/schedcache"
)

// frameMatrix builds the schedule matrix the simulator differential tests
// use — base and duty-cycled schedules over several classes and both
// division strategies — each wrapped with its exact analysis summary.
func frameMatrix(t testing.TB) []*Frame {
	t.Helper()
	keys := []schedcache.Key{
		{N: 9, D: 2},
		{N: 9, D: 2, AlphaT: 2, AlphaR: 4},
		{N: 16, D: 2, AlphaT: 2, AlphaR: 4, Strategy: core.Balanced},
		{N: 25, D: 2, AlphaT: 3, AlphaR: 5},
		{N: 25, D: 2, AlphaT: 3, AlphaR: 5, Strategy: core.Balanced},
		{N: 25, D: 3, AlphaT: 1, AlphaR: 1},
	}
	frames := make([]*Frame, 0, len(keys))
	for _, k := range keys {
		s, err := schedcache.ServingLimits.Build("polynomial", k)
		if err != nil {
			t.Fatalf("Build(%+v): %v", k, err)
		}
		frames = append(frames, &Frame{
			N: k.N, D: k.D, AlphaT: k.AlphaT, AlphaR: k.AlphaR, Strategy: k.Strategy,
			Schedule:       s,
			AvgThroughput:  core.AvgThroughput(s, k.D),
			ActiveFraction: s.ActiveFraction(),
		})
	}
	return frames
}

func schedulesEqual(a, b *core.Schedule) bool {
	if a.N() != b.N() || a.L() != b.L() {
		return false
	}
	for i := 0; i < a.L(); i++ {
		if !a.T(i).Equal(b.T(i)) || !a.R(i).Equal(b.R(i)) {
			return false
		}
	}
	return true
}

func TestRoundTripMatrix(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range frameMatrix(t) {
		enc, err := Encode(f)
		if err != nil {
			t.Fatalf("Encode(n=%d αT=%d): %v", f.N, f.AlphaT, err)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(n=%d αT=%d): %v", f.N, f.AlphaT, err)
		}
		if got.N != f.N || got.D != f.D || got.AlphaT != f.AlphaT ||
			got.AlphaR != f.AlphaR || got.Strategy != f.Strategy {
			t.Fatalf("class echo changed: %+v vs %+v", got, f)
		}
		if !schedulesEqual(got.Schedule, f.Schedule) {
			t.Fatalf("n=%d αT=%d: decoded schedule differs", f.N, f.AlphaT)
		}
		if got.AvgThroughput.Cmp(f.AvgThroughput) != 0 {
			t.Fatalf("throughput %s vs %s", got.AvgThroughput, f.AvgThroughput)
		}
		if got.ActiveFraction != f.ActiveFraction {
			t.Fatalf("active fraction %v vs %v", got.ActiveFraction, f.ActiveFraction)
		}
		// Canonical form: the round trip must re-encode byte-identically,
		// and the digest must be stable and unique per frame.
		re, err := Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("n=%d αT=%d: re-encode is not byte-identical", f.N, f.AlphaT)
		}
		d := Digest(enc)
		if len(d) != 32 || strings.ToLower(d) != d {
			t.Fatalf("digest %q is not 32 lowercase hex chars", d)
		}
		if d != Digest(re) {
			t.Fatal("digest unstable across identical encodings")
		}
		if seen[d] {
			t.Fatalf("digest collision across distinct frames: %s", d)
		}
		seen[d] = true
	}
}

// TestWireSmallerThanJSON pins the point of the format: the binary frame
// must be substantially smaller than the JSON schedule document alone
// (which does not even carry the analysis summary).
func TestWireSmallerThanJSON(t *testing.T) {
	for _, f := range frameMatrix(t) {
		enc, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		jsonSize := 0
		for i := 0; i < f.Schedule.L(); i++ {
			// A decimal node list costs ≥ 2 bytes per element plus
			// brackets; this underestimates EncodeSchedule output.
			jsonSize += 4 + 2*(f.Schedule.T(i).Count()+f.Schedule.R(i).Count())
		}
		if len(enc) >= jsonSize {
			t.Errorf("n=%d αT=%d: wire %dB not smaller than JSON floor %dB", f.N, f.AlphaT, len(enc), jsonSize)
		}
	}
}

func validFrameBytes(t testing.TB) []byte {
	t.Helper()
	f := frameMatrix(t)[1] // duty-cycled 9-node schedule: small but non-trivial
	enc, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestDecodeRejections(t *testing.T) {
	valid := validFrameBytes(t)

	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return mutate(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte("TT")},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad version", corrupt(func(b []byte) []byte { b[4] = 99; return b })},
		{"flipped payload byte (CRC)", corrupt(func(b []byte) []byte { b[10] ^= 0x40; return b })},
		{"flipped CRC byte", corrupt(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })},
		{"truncated", valid[:len(valid)-5]},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"oversize varint", []byte("TTDW\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02")},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.data); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// TestDecodeRejectsNonCanonical rebuilds hostile payloads through the
// encoder's own framing so only the targeted field is wrong.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	frame := func(payload []byte) []byte {
		out := []byte("TTDW\x01")
		out = append(out, byte(len(payload))) // single-byte uvarint; payloads kept < 128
		out = append(out, payload...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"zero n", []byte{0}},
		{"n over bound", []byte{0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"zero frame length", []byte{2, 1, 0, 0, 0, 0}},
		{"strategy out of range", []byte{2, 1, 0, 0, 2, 1}},
		{"set count beyond n", []byte{2, 1, 0, 0, 0, 1, 3, 0, 1, 0}},
		{"element outside universe", []byte{2, 1, 0, 0, 0, 1, 1, 5, 0}},
		{"non-minimal varint", []byte{0x82, 0x00, 1, 0, 0, 0, 1}},
		// n=2, D=1, L=1, T={0}, R={1}, then an unreduced 2/4 rational.
		{"unreduced rational", []byte{2, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 2, 1, 4,
			0, 0, 0, 0, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		if _, err := Decode(frame(tc.payload)); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

func TestEncodeRejectsInvalidFrames(t *testing.T) {
	s, err := schedcache.ServingLimits.Build("polynomial", schedcache.Key{N: 9, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	ok := &Frame{N: 9, D: 2, Schedule: s, AvgThroughput: big.NewRat(1, 3), ActiveFraction: 1}
	if _, err := Encode(ok); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	bad := []*Frame{
		nil,
		{N: 9, D: 2, AvgThroughput: big.NewRat(1, 3)},                                     // no schedule
		{N: 8, D: 2, Schedule: s, AvgThroughput: big.NewRat(1, 3), ActiveFraction: 1},     // n mismatch
		{N: 9, D: 2, Schedule: s, ActiveFraction: 1},                                      // no throughput
		{N: 9, D: 2, Schedule: s, AvgThroughput: big.NewRat(-1, 3), ActiveFraction: 1},    // negative
		{N: 9, D: 2, Schedule: s, AvgThroughput: big.NewRat(1, 3), ActiveFraction: 1.5},   // af > 1
		{N: 9, D: 2, Schedule: s, AvgThroughput: big.NewRat(1, 3), Strategy: 7},           // bad strategy
		{N: 9, D: 2, AlphaT: -1, Schedule: s, AvgThroughput: big.NewRat(1, 3)},            // negative cap
		{N: 9, D: 2, AlphaT: 10, AlphaR: 1, Schedule: s, AvgThroughput: big.NewRat(1, 3)}, // cap > n
	}
	for i, f := range bad {
		if _, err := Encode(f); err == nil {
			t.Errorf("bad frame %d encoded without error", i)
		}
	}
}
