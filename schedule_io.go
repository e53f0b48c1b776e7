package ttdc

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/bitset"
)

// scheduleJSON is the on-disk form of a schedule: per-slot transmitter and
// receiver node lists.
type scheduleJSON struct {
	N int     `json:"n"`
	T [][]int `json:"t"`
	R [][]int `json:"r"`
}

// EncodeSchedule writes s to w as JSON ({"n":..., "t":[[...]], "r":[[...]]}).
// The bytes are those encoding/json writes for scheduleJSON, newline
// included, appended straight from the slot sets without building the
// node lists.
func EncodeSchedule(w io.Writer, s *Schedule) error {
	b := append(make([]byte, 0, 64), `{"n":`...)
	b = strconv.AppendInt(b, int64(s.N()), 10)
	b = append(b, `,"t":`...)
	b = appendSlotLists(b, s.L(), s.T)
	b = append(b, `,"r":`...)
	b = appendSlotLists(b, s.L(), s.R)
	b = append(b, "}\n"...)
	_, err := w.Write(b)
	return err
}

// appendSlotLists appends the JSON array of the l slot sets slot(0..l-1),
// each as an array of its elements in increasing order.
func appendSlotLists(b []byte, l int, slot func(int) *bitset.Set) []byte {
	b = append(b, '[')
	for i := 0; i < l; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		sep := false
		slot(i).ForEach(func(x int) bool {
			if sep {
				b = append(b, ',')
			}
			sep = true
			b = strconv.AppendInt(b, int64(x), 10)
			return true
		})
		b = append(b, ']')
	}
	return append(b, ']')
}

// maxDecodedDimension bounds n and L when decoding untrusted input, so a
// hostile document cannot force pathological allocations.
const maxDecodedDimension = 1 << 20

// DecodeSchedule reads a schedule previously written by EncodeSchedule.
func DecodeSchedule(r io.Reader) (*Schedule, error) {
	var in scheduleJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("ttdc: decode schedule: %w", err)
	}
	if in.N < 1 || in.N > maxDecodedDimension {
		return nil, fmt.Errorf("ttdc: decoded n = %d outside [1, %d]", in.N, maxDecodedDimension)
	}
	if len(in.T) > maxDecodedDimension {
		return nil, fmt.Errorf("ttdc: decoded frame length %d exceeds %d", len(in.T), maxDecodedDimension)
	}
	if len(in.R) > maxDecodedDimension {
		return nil, fmt.Errorf("ttdc: decoded receiver slot count %d exceeds %d", len(in.R), maxDecodedDimension)
	}
	s, err := NewSchedule(in.N, in.T, in.R)
	if err != nil {
		return nil, fmt.Errorf("ttdc: decoded schedule invalid: %w", err)
	}
	return s, nil
}
