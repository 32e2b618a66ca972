package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"knor/internal/jsonfloat"
	"knor/internal/matrix"
	"knor/internal/netcluster"
	"knor/internal/serve"
)

// The /v1/assign and /v1/observe bodies, {"model":"...","rows":[[...],
// ...]}, are decoded by one validating pass over the body bytes that
// appends every number straight into a row-major matrix. Member names
// match as bytes.EqualFold does, unknown members are skipped but
// syntax-checked, a repeated member replaces the earlier one, a
// top-level null is an empty request, nesting is capped at
// encoding/json's depth, and bytes after the first value are ignored.
// A number is read once, byte by byte, by jsonfloat.Scan, which checks
// the JSON grammar and converts it to the float64 strconv.ParseFloat
// returns, as encoding/json converts it. A null coordinate is
// rejected, and so is a row whose squared norm overflows, since its
// distances could not be encoded into the reply. Decoding stops at the
// first row or coordinate past maxRows or maxCoords.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// maxPooled caps the buffer sizes a released request keeps, so one huge
// body does not stay pinned in the pool.
const maxPooled = 1 << 20

// maxCoords and maxRows bound a decoded body to what one cluster frame
// carries each way: the fan-out sends every coordinate to a shard as 8
// bytes, and the shard answers every row with 16. 64 KiB of the frame
// is left for the shard key and the trace extension. A body under
// maxBodyBytes can still decode past them (a 2-byte "0," is an 8-byte
// coordinate), so the parser counts as it goes and answers 413 on both
// deployments.
const (
	maxCoords = (netcluster.MaxFrameBytes - 64<<10) / 8
	maxRows   = (netcluster.MaxFrameBytes - 64<<10) / 16
)

var (
	errNullCoordinate = errors.New("null coordinate")
	errNormOverflow   = errors.New("squared norm is not finite")
	errTooLarge       = fmt.Errorf("more than %d rows or %d coordinates", maxRows, maxCoords)

	nameModel = []byte("model")
	nameRows  = []byte("rows")
)

// rowsReq is one decoded /v1/assign or /v1/observe request. Requests are
// pooled with their buffers: body holds the raw bytes and then the
// reply, and rows keeps its backing array, so a steady-state decode
// allocates only the model name.
type rowsReq struct {
	model string
	rows  matrix.Dense
	body  bytes.Buffer
}

var rowsReqPool = sync.Pool{New: func() any { return new(rowsReq) }}

// maxBodyBytes caps every request body knorserve reads: the largest
// payload the cluster carries (netcluster.MaxFrameBytes). A longer
// body answers 413 once the cap is read, so an endless one is never
// buffered whole.
const maxBodyBytes = netcluster.MaxFrameBytes

// readRows reads and decodes r's body, answering 413 or 400 itself when
// that fails. The caller releases the request once nothing uses its
// rows.
func readRows(w http.ResponseWriter, r *http.Request) (*rowsReq, bool) {
	q := rowsReqPool.Get().(*rowsReq)
	if err := q.read(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		q.release()
		writeErr(w, bodyStatus(err), err)
		return nil, false
	}
	return q, true
}

// bodyStatus is the status for a body that failed to read or decode:
// 413 past maxBodyBytes, maxRows or maxCoords, 400 otherwise.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) || errors.Is(err, errTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// read reads the whole body and decodes it into q.
func (q *rowsReq) read(body io.Reader) error {
	q.body.Reset()
	if _, err := q.body.ReadFrom(body); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return q.decode(q.body.Bytes())
}

// release returns q to the pool.
func (q *rowsReq) release() {
	if q.body.Cap() > maxPooled || cap(q.rows.Data) > maxPooled/8 {
		return
	}
	rowsReqPool.Put(q)
}

// decode parses one request body into q.model and q.rows.
func (q *rowsReq) decode(body []byte) error {
	q.model = ""
	q.rows = matrix.Dense{Data: q.rows.Data[:0]}
	p := parser{b: body, q: q}
	if err := p.request(); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if p.bad != nil {
		return fmt.Errorf("bad request body: %w", p.bad)
	}
	for i := 0; i < q.rows.RowsN; i++ {
		var sq float64
		for _, v := range q.rows.Row(i) {
			sq += v * v
		}
		if sq > math.MaxFloat64 {
			return fmt.Errorf("bad request body: row %d: %w", i, errNormOverflow)
		}
	}
	return nil
}

// parser is a cursor over one request body that decodes into q.
type parser struct {
	b []byte
	i int
	q *rowsReq
	// bad is the first ragged row or null coordinate of the current
	// "rows" member. It is held, not returned, because a later "rows"
	// member replaces this one.
	bad error
}

// request parses the top-level value: null, or an object whose "model"
// and "rows" members are decoded and whose other members are skipped.
func (p *parser) request() error {
	switch p.ws() {
	case 'n':
		return p.literal("null")
	case '{':
	default:
		return p.fail("request object")
	}
	p.i++
	if p.ws() == '}' {
		return nil
	}
	for {
		if p.ws() != '"' {
			return p.fail("member name")
		}
		key, err := p.text()
		if err != nil {
			return err
		}
		if p.ws() != ':' {
			return p.fail("':' after member name")
		}
		p.i++
		switch {
		case bytes.EqualFold(key, nameModel):
			err = p.model()
		case bytes.EqualFold(key, nameRows):
			err = p.rows()
		default:
			err = p.skip(1)
		}
		if err != nil {
			return err
		}
		switch p.ws() {
		case ',':
			p.i++
		case '}':
			return nil
		default:
			return p.fail("',' or '}' after member")
		}
	}
}

// model parses the "model" member: a string, or null, which keeps the
// name already set.
func (p *parser) model() error {
	switch p.ws() {
	case 'n':
		return p.literal("null")
	case '"':
		name, err := p.text()
		if err != nil {
			return err
		}
		p.q.model = string(name)
		return nil
	}
	return p.fail("model name")
}

// rows parses the "rows" member, replacing any earlier one: null, or an
// array of rows, each null (an empty row) or an array of numbers.
func (p *parser) rows() error {
	m := &p.q.rows
	*m = matrix.Dense{Data: m.Data[:0]}
	p.bad = nil
	switch p.ws() {
	case 'n':
		return p.literal("null")
	case '[':
	default:
		return p.fail("array of rows")
	}
	p.i++
	if p.ws() == ']' {
		p.i++
		return nil
	}
	for {
		if m.RowsN == maxRows {
			return errTooLarge
		}
		start := len(m.Data)
		var err error
		switch p.ws() {
		case 'n':
			err = p.literal("null")
		case '[':
			err = p.row()
		default:
			return p.fail("row")
		}
		if err != nil {
			return err
		}
		if cols := len(m.Data) - start; m.RowsN == 0 {
			m.ColsN = cols
		} else if cols != m.ColsN && p.bad == nil {
			p.bad = fmt.Errorf("row %d has %d columns, want %d", m.RowsN, cols, m.ColsN)
		}
		m.RowsN++
		switch p.ws() {
		case ',':
			p.i++
		case ']':
			p.i++
			return nil
		default:
			return p.fail("',' or ']' after row")
		}
	}
}

// row appends one row's numbers to the rows matrix.
func (p *parser) row() error {
	m := &p.q.rows
	p.i++
	if p.ws() == ']' {
		p.i++
		return nil
	}
	for col := 0; ; col++ {
		if len(m.Data) == maxCoords {
			return errTooLarge
		}
		switch c := p.ws(); {
		case c == '-' || '0' <= c && c <= '9':
			v, end, err := jsonfloat.Scan(p.b, p.i)
			p.i = end
			if err != nil {
				return err
			}
			m.Data = append(m.Data, v)
		case c == 'n':
			if err := p.literal("null"); err != nil {
				return err
			}
			if p.bad == nil {
				p.bad = fmt.Errorf("row %d column %d: %w", m.RowsN, col, errNullCoordinate)
			}
			m.Data = append(m.Data, 0)
		default:
			return p.fail("number")
		}
		switch p.ws() {
		case ',':
			p.i++
		case ']':
			p.i++
			return nil
		default:
			return p.fail("',' or ']' after number")
		}
	}
}

// skip validates and passes over one value; depth is the number of
// containers around it.
func (p *parser) skip(depth int) error {
	switch c := p.ws(); {
	case c == '"':
		_, _, err := p.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		// encoding/json never converts a number it skips, so one past
		// float64's range passes here.
		_, end, err := jsonfloat.Scan(p.b, p.i)
		p.i = end
		if errors.Is(err, strconv.ErrRange) {
			return nil
		}
		return err
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	case c == '[' || c == '{':
		if depth++; depth > maxDepth {
			return fmt.Errorf("offset %d: exceeded max depth %d", p.i, maxDepth)
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		p.i++
		if p.ws() == end {
			p.i++
			return nil
		}
		for {
			if c == '{' {
				if p.ws() != '"' {
					return p.fail("member name")
				}
				if _, _, err := p.str(); err != nil {
					return err
				}
				if p.ws() != ':' {
					return p.fail("':' after member name")
				}
				p.i++
			}
			if err := p.skip(depth); err != nil {
				return err
			}
			switch p.ws() {
			case ',':
				p.i++
			case end:
				p.i++
				return nil
			default:
				return p.fail(fmt.Sprintf("',' or '%c'", end))
			}
		}
	}
	return p.fail("value")
}

// ws skips whitespace and returns the next byte, or 0 at the end.
func (p *parser) ws() byte {
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// fail reports that the byte at the cursor is not the wanted token.
func (p *parser) fail(want string) error {
	if p.i >= len(p.b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("offset %d: found %q, want %s", p.i, p.b[p.i], want)
}

// literal scans the word true, false or null.
func (p *parser) literal(word string) error {
	for j := 0; j < len(word); j++ {
		if p.i >= len(p.b) || p.b[p.i] != word[j] {
			return p.fail(word)
		}
		p.i++
	}
	return nil
}

// text scans a string and returns its value. A string that has escapes
// or non-ASCII bytes is unescaped by encoding/json, which also replaces
// invalid UTF-8 with U+FFFD.
func (p *parser) text() ([]byte, error) {
	lit, plain, err := p.str()
	if err != nil {
		return nil, err
	}
	if plain {
		return lit[1 : len(lit)-1], nil
	}
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// str scans the string at the cursor and returns it with its quotes;
// plain reports that it has no escapes and only ASCII bytes, so the
// bytes between the quotes are its value.
func (p *parser) str() (lit []byte, plain bool, err error) {
	start := p.i
	plain = true
	for p.i++; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start:p.i], plain, nil
		case c == '\\':
			plain = false
			if p.i++; p.i >= len(p.b) {
				return nil, false, p.fail("escape")
			}
			switch p.b[p.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					if p.i++; p.i >= len(p.b) || !isHex(p.b[p.i]) {
						return nil, false, p.fail("hex digit in \\u escape")
					}
				}
			default:
				return nil, false, p.fail("escape")
			}
		case c < 0x20:
			return nil, false, p.fail("string character")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, false, p.fail("closing quote")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// appendAssignReply appends the /v1/assign reply for as to b, byte for
// byte what json.NewEncoder(w).Encode(assignResp{...}) writes, trailing
// newline included. A NaN or infinite distance, which JSON cannot
// carry, is an error naming its row.
func appendAssignReply(b []byte, as []serve.Assignment) ([]byte, error) {
	version := 0
	if len(as) > 0 {
		version = as[0].Version
	}
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, int64(version), 10)
	b = append(b, `,"clusters":[`...)
	for i, a := range as {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(a.Cluster), 10)
	}
	b = append(b, `],"sqdists":[`...)
	for i, a := range as {
		if math.IsInf(a.SqDist, 0) || math.IsNaN(a.SqDist) {
			return b, fmt.Errorf("row %d: squared distance %v has no JSON encoding", i, a.SqDist)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonfloat.Append(b, a.SqDist)
	}
	return append(b, "]}\n"...), nil
}
