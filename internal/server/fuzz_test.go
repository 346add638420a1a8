package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// scoreRequest and decodeScoreRequestJSON are the encoding/json decoder
// /api/score used before the hand-written scanner, kept verbatim as the
// differential oracle: FuzzDecodeScoreRequestDiff holds the scanner to its
// accept/reject decisions and decoded bits.
type scoreRequest struct {
	Vectors [][]float64 `json:"vectors"`
}

func decodeScoreRequestJSON(r io.Reader) (*scoreRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req scoreRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return nil, errors.New("trailing data after request object")
	}
	if len(req.Vectors) == 0 {
		return nil, errors.New("vectors must contain at least one vector")
	}
	if len(req.Vectors) > maxScoreVectors {
		return nil, fmt.Errorf("too many vectors: %d > %d", len(req.Vectors), maxScoreVectors)
	}
	width := len(req.Vectors[0])
	if width == 0 {
		return nil, errors.New("vectors must not be empty")
	}
	for i, v := range req.Vectors {
		if len(v) != width {
			return nil, fmt.Errorf("vector %d has %d features, vector 0 has %d", i, len(v), width)
		}
	}
	return &req, nil
}

// scoreBody encodes a rows×width request the way a client marshals
// extracted feature vectors: exact zeros, integral counters, 17-digit
// fractions and values spanning many decades, some negative.
func scoreBody(rows, width int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	vectors := make([][]float64, rows)
	for i := range vectors {
		v := make([]float64, width)
		for j := range v {
			switch rng.Intn(4) {
			case 0: // a flat series' feature
			case 1:
				v[j] = float64(rng.Int63n(1 << 40))
			case 2:
				v[j] = rng.Float64()
			default:
				v[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(24)-12))
			}
		}
		vectors[i] = v
	}
	body, err := json.Marshal(map[string][][]float64{"vectors": vectors})
	if err != nil {
		panic(err) // finite floats always encode
	}
	return body
}

// fuzzWidth maps the fuzzer's width argument onto a usable deployed width.
func fuzzWidth(w uint16) int { return max(int(w), 1) }

// FuzzDecodeScoreRequest drives the server's untrusted JSON surface: no
// input may panic the decoder, and every accepted request must satisfy
// the invariants the handler relies on (non-empty batch within the size
// cap, every row exactly the deployed width and capped so an append to
// one row cannot clobber the next) so matrixFromVectors cannot be made to
// panic from the network.
func FuzzDecodeScoreRequest(f *testing.F) {
	f.Add([]byte(`{"vectors":[[1,2],[3,4]]}`), uint16(2))
	f.Add([]byte(`{"vectors":[]}`), uint16(1))
	f.Add([]byte(`{}`), uint16(1))
	f.Add([]byte(`{"vectors":[[1],[2,3]]}`), uint16(1))
	f.Add([]byte(`{"vectors":[[1]]}{"vectors":[[2]]}`), uint16(1))
	f.Add([]byte(`{"vectors":[[1]]}}`), uint16(1))
	f.Add([]byte(`{"vectors":[[1]]}]`), uint16(1))
	f.Add([]byte(`{"vectors":[[1,null]]}`), uint16(2))
	f.Add([]byte(`{"vectors":[[1]],"extra":true}`), uint16(1))
	f.Add([]byte(`{"vectors":[[]]}`), uint16(1))
	f.Add([]byte(`not json`), uint16(1))
	f.Add([]byte(`{"vectors":[[1e308,-1e308,0.5]]}`), uint16(3))
	f.Fuzz(func(t *testing.T, body []byte, w uint16) {
		width := fuzzWidth(w)
		vectors, err := decodeScoreRequest(bytes.NewReader(body), width)
		if err != nil {
			return
		}
		if len(vectors) == 0 || len(vectors) > maxScoreVectors {
			t.Fatalf("accepted batch of %d vectors", len(vectors))
		}
		for i, v := range vectors {
			if len(v) != width || cap(v) != width {
				t.Fatalf("accepted vector %d with len %d cap %d, want width %d", i, len(v), cap(v), width)
			}
		}
	})
}

// FuzzDecodeScoreRequestDiff holds the scanner to the encoding/json oracle.
// On every input both make the same accept/reject decision at the width
// the oracle's batch has, and where both accept the vectors are
// bit-identical (so -0 and every subnormal round-trip). The scanner may
// reject only two inputs the oracle accepted: a null feature value, which
// encoding/json stored as 0, and trailing data that starts with '}' or
// ']', which Decoder.More does not report. An accepted body is refused at
// any other width.
func FuzzDecodeScoreRequestDiff(f *testing.F) {
	f.Add(scoreBody(1, 6240, 1), uint16(6240))
	f.Add(scoreBody(3, 40, 2), uint16(40))
	for _, body := range []string{
		`{"vectors":[[0.12345678901234568,-1.2345678901234567e-7,12345678901234567]]}`,
		`{"vectors":[[5e-324,2.2250738585072009e-308,4.9406564584124654e-324,1e-400]]}`,
		`{"vectors":[[-0,-0.0,0e5,-0E-2]]}`,
		`{"vectors":[[1e400]]}`,
		`{"vectors":[[-1e400]]}`,
		`{"vectors":[[1.7976931348623157e308,1.7976931348623159e308]]}`,
		`{"vectors":[[1.0E+2,1e-2,1E2]]}`,
		`{"vectors":[[1]]}`,
		`{"VECTORS":[[1]]}`,
		`{"\u0076ector\u0053":[[1]]}`,
		`{"Vectors":[[1]]}`,
		`{"vectorſ":[[1]]}`,
		`{"vector\u017f":[[1]]}`,
		`{"vector\u212a":[[1]]}`,
		`{"vectors\ud800":[[1]]}`,
		`{"vectors":[[1]],"vectors":[[2]]}`,
		`{"vectors":[[1,2,3]],"vectors":[[2]]}`,
		`{"vectors":[[1],[2,3]],"vectors":[[2]]}`,
		`{"vectors":[[1],null],"vectors":[[2]]}`,
		`{"vectors":[[1]],"vectors":null}`,
		`{"vectors":null,"vectors":[[1]]}`,
		`{"vectors":[[1]],"vectors":[]}`,
		`{"vectors":[[5]],"vectors":[[null]]}`,
		`{"vectors":[["1"]],"vectors":[[1]]}`,
		`{"vectors":[[1e400]],"vectors":[[1]]}`,
		`{"vectors":[[+1]]}`,
		`{"vectors":[[.5]]}`,
		`{"vectors":[[01]]}`,
		`{"vectors":[[NaN]]}`,
		`{"vectors":[[0x10]]}`,
		`{"vectors":[[1.]]}`,
		`{"vectors":[[1e]]}`,
		`{"vectors":[[-]]}`,
		`{"vectors":[[1,]]}`,
		`{"vectors":[[1],]}`,
		`{"vectors":[[1]],}`,
		`{"vectors":[[1,null]]}`,
		`{"vectors":[null]}`,
		`{"vectors":[[true]]}`,
		`{"vectors":[[[1]]]}`,
		`{"vectors":[1]}`,
		`{"vectors":{}}`,
		`{"vectors":[[1]]}}`,
		`{"vectors":[[1]]} ]`,
		`{"vectors":[[1]]}{"vectors":[[2]]}`,
		`{"vectors":[[1]]} x`,
		"\t\r\n {\"vectors\" :\n[ [ 1 , 2 ] ]\n} \n",
		`null`,
		`[[1]]`,
		"{\"vectors\":[[1]]}\x00",
		"{\"vec\ttors\":[[1]]}",
		"\xef\xbb\xbf{\"vectors\":[[1]]}",
	} {
		// Seed the width with the first row's value count.
		firstRow := body[:max(strings.Index(body, "]"), 0)]
		f.Add([]byte(body), uint16(strings.Count(firstRow, ",")+1))
	}
	f.Fuzz(func(t *testing.T, body []byte, w uint16) {
		want, oerr := decodeScoreRequestJSON(bytes.NewReader(body))
		width := fuzzWidth(w)
		if oerr == nil {
			width = len(want.Vectors[0])
		}
		got, err := decodeScoreRequest(bytes.NewReader(body), width)
		switch {
		case oerr != nil && err == nil:
			t.Fatalf("accepted %q at width %d; encoding/json rejects it: %v", body, width, oerr)
		case oerr != nil:
			return
		case err != nil:
			if !allowedRejection(body, err) {
				t.Fatalf("rejected %q, which encoding/json accepts: %v", body, err)
			}
			return
		}
		if len(got) != len(want.Vectors) {
			t.Fatalf("%q: %d vectors, encoding/json decodes %d", body, len(got), len(want.Vectors))
		}
		for i, v := range want.Vectors {
			for j, x := range v {
				if math.Float64bits(got[i][j]) != math.Float64bits(x) {
					t.Fatalf("%q: vector %d feature %d = %v (%#x), encoding/json decodes %v (%#x)",
						body, i, j, got[i][j], math.Float64bits(got[i][j]), x, math.Float64bits(x))
				}
			}
		}
		if other := fuzzWidth(w); other != width {
			if _, err := decodeScoreRequest(bytes.NewReader(body), other); err == nil {
				t.Fatalf("accepted %q at width %d; its vectors have %d features", body, other, width)
			}
		}
	})
}

// allowedRejection reports whether the scanner's rejection of a body the
// oracle accepted is one of the two deliberate ones.
func allowedRejection(body []byte, err error) bool {
	switch {
	case errors.Is(err, errTrailingData):
		dec := json.NewDecoder(bytes.NewReader(body))
		var v json.RawMessage
		if dec.Decode(&v) != nil {
			return false
		}
		rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")
		return len(rest) > 0 && (rest[0] == '}' || rest[0] == ']')
	case errors.Is(err, errNullFeature):
		return hasNullFeature(body)
	}
	return false
}

// hasNullFeature reports whether a request the oracle accepted holds a
// null inside a row. Every key of such a request names the vectors field,
// so depth 3 (object, vectors array, row) is a feature position.
func hasNullFeature(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
		case json.Delim('}'), json.Delim(']'):
			if depth--; depth == 0 {
				return false
			}
		case nil:
			if depth == 3 {
				return true
			}
		}
	}
}
