package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"prodigy/internal/serve"
)

// Request-body limits for /api/score: enough for a full node-day of
// feature vectors, small enough that a hostile client cannot balloon the
// decoder. Vectors beyond the cap are rejected, not truncated.
const (
	maxScoreVectors   = 4096
	maxScoreBodyBytes = 8 << 20
)

// scoreResult is one vector's verdict.
type scoreResult struct {
	Score     float64 `json:"score"`
	Anomalous bool    `json:"anomalous"`
}

// Decode errors the fuzz oracle tells apart from the rest: the two inputs
// this decoder rejects that encoding/json + Decoder.More used to accept.
var (
	errTrailingData = errors.New("trailing data after request object")
	errNullFeature  = errors.New("null feature value")
)

// scoreBodies recycles request-body buffers across requests. Only the raw
// bytes are pooled: the decoded vectors may still be staged by the
// coalescer after a cancelled request returns, so they are never reused.
var scoreBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeScoreRequest parses and validates a POST /api/score body — {"vectors":
// [[...], ...]}, a batch of feature vectors in the deployed model's full
// extracted-feature space (pair with /api/health's features count and
// feature_names from the artifact) — whose rows must each hold width
// values. It is the server's untrusted-input JSON surface, deliberately
// split from the handler so the fuzz targets drive exactly what the
// network delivers.
//
// It is a hand-written single-pass scanner with the contract of the
// encoding/json decoder it replaced (kept as the fuzz oracle in
// fuzz_test.go): the key matches "vectors" exactly or case-insensitively,
// the last of duplicate keys wins, unknown fields are rejected, numbers
// follow the RFC 8259 grammar and convert with strconv.ParseFloat exactly
// as encoding/json does (out-of-range values rejected), and empty, ragged,
// wrong-width and over-cap batches are rejected. It additionally rejects
// null feature values (encoding/json stored them as 0) and any trailing
// data, closing brackets included. All rows share one flat allocation.
func decodeScoreRequest(r io.Reader, width int) ([][]float64, error) {
	buf := scoreBodies.Get().(*bytes.Buffer)
	defer scoreBodies.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	d := scoreDecoder{buf: buf.Bytes(), width: width}
	return d.request()
}

// scoreDecoder is the scanner state of one decodeScoreRequest call.
type scoreDecoder struct {
	buf   []byte
	pos   int
	width int

	flat []float64 // every stored row, back to back
	rows int       // rows in the current vectors value, stored or not
	seen bool      // a vectors key was read
	// bad is why the current vectors value cannot be served (a null,
	// wrong-width or over-cap row). It is not returned at once: a later
	// duplicate vectors key replaces the value, as with encoding/json.
	bad error
}

func (d *scoreDecoder) request() ([][]float64, error) {
	// Every row opens one '[' and the vectors array one more, and a row
	// takes at least 2*width+1 bytes: size the flat slice once from that.
	rows := min(bytes.Count(d.buf, []byte("["))-1, len(d.buf)/(2*d.width+1), maxScoreVectors)
	d.flat = make([]float64, 0, max(rows, 0)*d.width)

	d.skipSpace()
	if err := d.expect('{'); err != nil {
		return nil, err
	}
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
	} else {
		for {
			if err := d.field(); err != nil {
				return nil, err
			}
			done, err := d.next('}')
			if err != nil {
				return nil, err
			}
			if done {
				break
			}
		}
	}
	d.skipSpace()
	if d.pos < len(d.buf) {
		return nil, errTrailingData
	}

	switch {
	case !d.seen || d.rows == 0:
		return nil, errors.New("vectors must contain at least one vector")
	case d.rows > maxScoreVectors:
		return nil, fmt.Errorf("too many vectors: %d > %d", d.rows, maxScoreVectors)
	case d.bad != nil:
		return nil, d.bad
	}
	out := make([][]float64, d.rows)
	for i := range out {
		out[i] = d.flat[i*d.width : (i+1)*d.width : (i+1)*d.width]
	}
	return out, nil
}

// field decodes one "key": value pair of the request object.
func (d *scoreDecoder) field() error {
	if err := d.expect('"'); err != nil {
		return err
	}
	vectors, err := d.key()
	if err != nil {
		return err
	}
	d.skipSpace()
	if err := d.expect(':'); err != nil {
		return err
	}
	if !vectors {
		return errors.New("unknown field in request object (want only \"vectors\")")
	}
	d.skipSpace()
	return d.vectors()
}

// key scans the rest of a string whose opening quote was consumed and
// reports whether it names the vectors field: exactly, or equal under
// Unicode case folding as encoding/json matches struct fields. A key with
// escapes is rare, so encoding/json unquotes it, which keeps its escape
// grammar and invalid-UTF-16 handling by construction.
func (d *scoreDecoder) key() (bool, error) {
	start, escaped := d.pos, false
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		d.pos++
		switch {
		case c == '"':
			key := d.buf[start : d.pos-1]
			if escaped {
				var s string
				if err := json.Unmarshal(d.buf[start-1:d.pos], &s); err != nil {
					return false, fmt.Errorf("invalid JSON: object key at offset %d: %w", start, err)
				}
				key = []byte(s)
			}
			return bytes.EqualFold(key, []byte("vectors")), nil
		case c == '\\':
			escaped = true
			d.pos++ // an escaped byte never closes the key
		case c < 0x20:
			return false, d.syntaxError(c, "in object key")
		}
	}
	return false, d.syntaxError(0, "in object key")
}

// vectors decodes the value of a vectors key, replacing any earlier one.
func (d *scoreDecoder) vectors() error {
	d.seen, d.rows, d.bad, d.flat = true, 0, nil, d.flat[:0]
	if d.peek() == 'n' {
		return d.null() // no vectors, unless a later key brings some
	}
	if err := d.expectValue('['); err != nil {
		return err
	}
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := d.row(); err != nil {
			return err
		}
		if done, err := d.next(']'); done || err != nil {
			return err
		}
	}
}

// row decodes one vector. Values are parsed, range-checked and null-checked
// even once the batch is known to be unservable, since encoding/json
// rejected such a body however its vectors key ended, but only rows of a
// still-servable batch are stored.
func (d *scoreDecoder) row() error {
	i := d.rows
	d.rows++
	if d.peek() == 'n' {
		if d.bad == nil {
			d.bad = fmt.Errorf("vector %d is null", i)
		}
		return d.null()
	}
	if err := d.expectValue('['); err != nil {
		return err
	}
	store := d.bad == nil && i < maxScoreVectors
	n := 0
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
	} else {
		for {
			c := d.peek()
			if c == 'n' {
				if err := d.null(); err != nil {
					return err
				}
				return fmt.Errorf("%w at vector %d, feature %d", errNullFeature, i, n)
			}
			if c != '-' && (c < '0' || c > '9') {
				return d.typeError(c)
			}
			f, err := d.number()
			if err != nil {
				return err
			}
			if store && n < d.width {
				d.flat = append(d.flat, f)
			}
			n++
			done, err := d.next(']')
			if err != nil {
				return err
			}
			if done {
				break
			}
		}
	}
	if store && n != d.width {
		d.bad = fmt.Errorf("vector %d has %d features, deployed model expects %d", i, n, d.width)
	}
	return nil
}

// number scans one RFC 8259 number and converts it the way encoding/json
// does, so every accepted value is bit-identical to what it decoded.
func (d *scoreDecoder) number() (float64, error) {
	buf, start := d.buf, d.pos
	i := start
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	switch {
	case i < len(buf) && buf[i] == '0':
		i++
	case i < len(buf) && buf[i]-'1' < 9:
		i = digits(buf, i+1)
	default:
		d.pos = i
		return 0, d.syntaxError(d.peek(), "in numeric literal")
	}
	if i < len(buf) && buf[i] == '.' {
		if i++; i >= len(buf) || buf[i]-'0' > 9 {
			d.pos = i
			return 0, d.syntaxError(d.peek(), "after decimal point in numeric literal")
		}
		i = digits(buf, i+1)
	}
	if i < len(buf) && buf[i]|0x20 == 'e' {
		if i++; i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			i++
		}
		if i >= len(buf) || buf[i]-'0' > 9 {
			d.pos = i
			return 0, d.syntaxError(d.peek(), "in exponent of numeric literal")
		}
		i = digits(buf, i+1)
	}
	d.pos = i
	tok := buf[start:i]
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s at offset %d: out of float64 range", tok, start)
	}
	return f, nil
}

// digits returns the index of the first non-digit at or after i.
func digits(buf []byte, i int) int {
	for i < len(buf) && buf[i]-'0' <= 9 {
		i++
	}
	return i
}

// null consumes the literal null.
func (d *scoreDecoder) null() error {
	if !bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		return d.syntaxError(d.peek(), "in literal null")
	}
	d.pos += len("null")
	return nil
}

func (d *scoreDecoder) skipSpace() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// next consumes the separator after an object field or array element and
// reports whether it was the closing byte; after a comma it skips to the
// next token.
func (d *scoreDecoder) next(closing byte) (bool, error) {
	d.skipSpace()
	switch c := d.peek(); c {
	case closing:
		d.pos++
		return true, nil
	case ',':
		d.pos++
		d.skipSpace()
		return false, nil
	default:
		return false, d.syntaxError(c, "looking for ',' or "+strconv.QuoteRune(rune(closing)))
	}
}

// peek returns the next byte, or 0 (never valid where a token is read)
// at the end of the body.
func (d *scoreDecoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// expect consumes structural byte c.
func (d *scoreDecoder) expect(c byte) error {
	if got := d.peek(); got != c {
		return d.syntaxError(got, "looking for "+strconv.QuoteRune(rune(c)))
	}
	d.pos++
	return nil
}

// expectValue consumes the opening bracket of a value the schema
// requires to be an array; any other value is a type error.
func (d *scoreDecoder) expectValue(c byte) error {
	if got := d.peek(); got != c {
		return d.typeError(got)
	}
	d.pos++
	return nil
}

// typeError reports a value that is well-placed but of the wrong type
// (or malformed) where the schema wants an array or a number.
func (d *scoreDecoder) typeError(c byte) error {
	if c == 0 {
		return d.syntaxError(c, "looking for a value")
	}
	return fmt.Errorf("invalid JSON at offset %d: vectors must be an array of arrays of numbers, found %q", d.pos, c)
}

func (d *scoreDecoder) syntaxError(c byte, context string) error {
	if c == 0 && d.pos >= len(d.buf) {
		return fmt.Errorf("invalid JSON: unexpected end of body %s", context)
	}
	return fmt.Errorf("invalid JSON at offset %d: invalid character %q %s", d.pos, c, context)
}

// handleScore scores a batch of raw feature vectors: POST {"vectors":
// [[...], ...]} returns per-vector scores and verdicts plus the threshold
// they were judged against. Every request routes through the coalescing
// serving tier — single-row requests are micro-batched with their
// concurrent company into one pipeline batch (results are bit-identical
// to solo scoring) — and overload answers 429 with Retry-After instead
// of queueing without bound.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "POST a JSON body to /api/score")
		return
	}
	if s.Tier == nil || s.Prodigy == nil || !s.Prodigy.Trained() {
		writeError(w, r, http.StatusServiceUnavailable, "no trained model deployed")
		return
	}
	vectors, err := decodeScoreRequest(http.MaxBytesReader(w, r.Body, maxScoreBodyBytes), len(s.Prodigy.FeatureNames()))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad score request: %v", err)
		return
	}
	res, err := s.Tier.ScoreBatch(r.Context(), vectors)
	if err != nil {
		switch {
		case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrStopped):
			// Shed, not failed: the client should back off and retry.
			w.Header().Set("Retry-After", "1")
			writeError(w, r, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, serve.ErrBatchTooLarge):
			writeError(w, r, http.StatusBadRequest, "%v; split the batch", err)
		case r.Context().Err() != nil:
			// The client went away while the request waited.
			writeError(w, r, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, r, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	results := make([]scoreResult, len(res.Scores))
	for i := range res.Scores {
		results[i] = scoreResult{Score: res.Scores[i], Anomalous: res.Preds[i] == 1}
	}
	writeJSON(w, map[string]interface{}{
		"threshold": res.Threshold,
		"results":   results,
	})
}
