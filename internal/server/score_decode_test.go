package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestDecodeScoreRequest(t *testing.T) {
	for _, tc := range []struct {
		body  string
		width int
		want  [][]float64
	}{
		{`{"vectors":[[1,2],[3,4]]}`, 2, [][]float64{{1, 2}, {3, 4}}},
		{" {\"vectors\" :\n[ [-0 , 1.0E+2 ] ] }\r\n", 2, [][]float64{{math.Copysign(0, -1), 100}}},
		{`{"VECTORS":[[1]]}`, 1, [][]float64{{1}}},
		{`{"vectorſ":[[1]]}`, 1, [][]float64{{1}}},
		{`{"\u0076ector\u017f":[[1]]}`, 1, [][]float64{{1}}},
		// The last of duplicate keys wins, even over an unservable batch.
		{`{"vectors":[[1,2,3],[4]],"vectors":[[5]]}`, 1, [][]float64{{5}}},
		{`{"vectors":null,"vectors":[[6]]}`, 1, [][]float64{{6}}},
	} {
		got, err := decodeScoreRequest(strings.NewReader(tc.body), tc.width)
		if err != nil {
			t.Errorf("%q: %v", tc.body, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%q: %d vectors, want %d", tc.body, len(got), len(tc.want))
			continue
		}
		for i := range got {
			for j := range got[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(tc.want[i][j]) {
					t.Errorf("%q: vector %d = %v, want %v", tc.body, i, got[i], tc.want[i])
				}
			}
		}
	}
}

func TestDecodeScoreRequestRejects(t *testing.T) {
	tooMany := `{"vectors":[` + strings.TrimSuffix(strings.Repeat("[1],", maxScoreVectors+1), ",") + `]}`
	for _, tc := range []struct {
		body, wantErr string
	}{
		{`{"vectors":[[1]]}{"vectors":[[2]]}`, "trailing data"},
		{`{"vectors":[[1]]}}`, "trailing data"},
		{`{"vectors":[[1]]}]`, "trailing data"},
		{`{"vectors":[[1]]} ]`, "trailing data"},
		{`{"vectors":[[1,null]]}`, "null feature value at vector 0, feature 1"},
		{`{"vectors":[[1,2],[3,null]]}`, "null feature value at vector 1, feature 1"},
		{`{"vectors":[[1,2],null]}`, "vector 1 is null"},
		{`{"vectors":[[1,2,3]]}`, "vector 0 has 3 features, deployed model expects 2"},
		{`{"vectors":[[1,2],[3]]}`, "vector 1 has 1 features, deployed model expects 2"},
		{`{"vectors":[[]]}`, "vector 0 has 0 features"},
		{`{"vectors":[]}`, "at least one vector"},
		{`{}`, "at least one vector"},
		{`{"vectors":[[1,2]],"extra":true}`, "unknown field"},
		{`{"vectors":[[1,1e400]]}`, "out of float64 range"},
		{`{"vectors":[[1,+1]]}`, "invalid JSON"},
		{`{"vectors":[[1,01]]}`, "invalid JSON"},
		{`{"vectors":[[1,"2"]]}`, "invalid JSON"},
		{`{"vectors":`, "invalid JSON"},
		{tooMany, "too many vectors"},
	} {
		_, err := decodeScoreRequest(strings.NewReader(tc.body), 2)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%.60q: error %v, want one containing %q", tc.body, err, tc.wantErr)
		}
	}
	if _, err := decodeScoreRequest(strings.NewReader(`{"vectors":[[1]]}}`), 1); !errors.Is(err, errTrailingData) {
		t.Errorf("trailing brace: %v, want errTrailingData", err)
	}
}

// TestDecodeScoreRequestAllocs pins the decoder's steady-state allocations
// per request: the flat vector storage and the row headers, however many
// rows the body holds (encoding/json made 37 at 1 row and 574 at 32).
func TestDecodeScoreRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	const width = 6240
	for _, rows := range []int{1, 32} {
		body := scoreBody(rows, width, 1)
		r := bytes.NewReader(body)
		decode := func() {
			r.Reset(body)
			if _, err := decodeScoreRequest(r, width); err != nil {
				t.Fatal(err)
			}
		}
		decode() // warm the body-buffer pool
		allocs := testing.AllocsPerRun(20, decode)
		t.Logf("%d×%d: %.1f allocs/request", rows, width, allocs)
		if allocs > 2 {
			t.Errorf("%d rows: %.1f allocs/request, want ≤ 2", rows, allocs)
		}
	}
}

var decodedVectors [][]float64

func BenchmarkDecodeScoreRequest(b *testing.B) {
	const width = 6240
	for _, rows := range []int{1, 32} {
		body := scoreBody(rows, width, 1)
		b.Run(fmt.Sprintf("%dx%d", rows, width), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := decodeScoreRequest(bytes.NewReader(body), width)
				if err != nil {
					b.Fatal(err)
				}
				decodedVectors = v
			}
		})
	}
}
