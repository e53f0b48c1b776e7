package ttdc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	ttdc "repro"
)

func TestScheduleJSONRoundTrip(t *testing.T) {
	orig, err := ttdc.PolynomialSchedule(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ttdc.EncodeSchedule(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ttdc.DecodeSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != orig.N() || got.L() != orig.L() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", got.N(), got.L(), orig.N(), orig.L())
	}
	for i := 0; i < orig.L(); i++ {
		if !got.T(i).Equal(orig.T(i)) || !got.R(i).Equal(orig.R(i)) {
			t.Fatalf("slot %d changed", i)
		}
	}
}

// TestEncodeScheduleMatchesEncodingJSON pins EncodeSchedule's hand-written
// bytes to what encoding/json writes for the same document, including
// empty slot lists, sleeping schedules and multi-digit node ids.
func TestEncodeScheduleMatchesEncodingJSON(t *testing.T) {
	poly, err := ttdc.PolynomialSchedule(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	tdma, err := ttdc.TDMA(70)
	if err != nil {
		t.Fatal(err)
	}
	small, err := ttdc.PolynomialSchedule(25, 2)
	if err != nil {
		t.Fatal(err)
	}
	duty, err := ttdc.Construct(small, ttdc.ConstructOptions{D: 2, AlphaT: 3, AlphaR: 5})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := ttdc.NewSchedule(3, [][]int{{}, {0}, {1, 2}}, [][]int{{0, 1, 2}, {}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		s    *ttdc.Schedule
	}{{"polynomial", poly}, {"tdma", tdma}, {"duty", duty}, {"sparse", sparse}} {
		name, s := c.name, c.s
		doc := struct {
			N int     `json:"n"`
			T [][]int `json:"t"`
			R [][]int `json:"r"`
		}{N: s.N(), T: make([][]int, s.L()), R: make([][]int, s.L())}
		for i := 0; i < s.L(); i++ {
			doc.T[i] = s.T(i).Elements()
			doc.R[i] = s.R(i).Elements()
		}
		var want, got bytes.Buffer
		if err := json.NewEncoder(&want).Encode(doc); err != nil {
			t.Fatal(err)
		}
		if err := ttdc.EncodeSchedule(&got, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: EncodeSchedule differs from encoding/json:\n got %.200q\nwant %.200q", name, got.Bytes(), want.Bytes())
		}
	}
}

// oversizedSlots renders a JSON array of count empty slot lists, for
// exercising the maxDecodedDimension guards (2^20 entries ≈ 3 MB of text).
func oversizedSlots(count int) string {
	var b strings.Builder
	b.Grow(3*count + 2)
	b.WriteByte('[')
	for i := 0; i < count; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("[]")
	}
	b.WriteByte(']')
	return b.String()
}

func TestDecodeScheduleErrors(t *testing.T) {
	const over = 1<<20 + 1 // maxDecodedDimension + 1
	cases := []struct {
		name    string
		input   string
		wantSub string
	}{
		{"bad JSON", `{not json`, "decode schedule"},
		{"empty input", ``, "decode schedule"},
		{"n below 1", `{"n":0,"t":[[]],"r":[[]]}`, "outside [1,"},
		{"n negative", `{"n":-1,"t":[[]],"r":[[]]}`, "outside [1,"},
		{"n oversized", fmt.Sprintf(`{"n":%d,"t":[[]],"r":[[]]}`, over), "outside [1,"},
		{"T oversized", fmt.Sprintf(`{"n":2,"t":%s,"r":[[]]}`, oversizedSlots(over)), "frame length"},
		{"R oversized", fmt.Sprintf(`{"n":2,"t":[[]],"r":%s}`, oversizedSlots(over)), "receiver slot count"},
		{"T/R length mismatch", `{"n":3,"t":[[0],[1]],"r":[[1]]}`, "|T| = 2 but |R| = 1"},
		{"empty frame", `{"n":3,"t":[],"r":[]}`, "positive"},
		{"T/R overlap in a slot", `{"n":3,"t":[[0,1]],"r":[[1,2]]}`, "both transmitting and receiving"},
		{"node out of range", `{"n":3,"t":[[3]],"r":[[]]}`, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ttdc.DecodeSchedule(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("invalid document accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
