package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/serve"
)

// referenceDecode is how /v1/assign and /v1/observe decoded bodies
// before the one-pass decoder: json.Decoder into assignReq, then
// matrix.FromRows. FuzzAssignBody holds the decoder to it.
func referenceDecode(body []byte) (string, *matrix.Dense, error) {
	var req assignReq
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return "", nil, err
	}
	rows, err := matrix.FromRows(req.Rows)
	return req.Model, rows, err
}

// referenceNullCoordinate reports whether the rows encoding/json keeps
// for body have a null where a number belongs.
func referenceNullCoordinate(t *testing.T, body []byte) bool {
	var req struct{ Rows [][]*float64 }
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		t.Fatalf("reference accepted %q as [][]float64 but not as [][]*float64: %v", body, err)
	}
	for _, row := range req.Rows {
		for _, v := range row {
			if v == nil {
				return true
			}
		}
	}
	return false
}

// normOverflows reports whether some row's squared norm is not finite.
func normOverflows(m *matrix.Dense) bool {
	for i := 0; i < m.Rows(); i++ {
		var sq float64
		for _, v := range m.Row(i) {
			sq += v * v
		}
		if math.IsInf(sq, 0) {
			return true
		}
	}
	return false
}

// checkDecode compares the one-pass decoder with referenceDecode on one
// body: the same accept/reject, model name and row bits, except that a
// null coordinate or a row whose squared norm overflows, which the
// reference accepts, must be rejected with the matching error.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	refModel, refRows, refErr := referenceDecode(body)
	var q rowsReq
	err := q.decode(body)
	switch {
	case refErr != nil:
		if err == nil {
			t.Fatalf("%q: reference rejects (%v), decoder accepts", body, refErr)
		}
		return
	case referenceNullCoordinate(t, body):
		if !errors.Is(err, errNullCoordinate) {
			t.Fatalf("%q: null coordinate: got %v, want a null-coordinate error", body, err)
		}
		return
	case normOverflows(refRows):
		if !errors.Is(err, errNormOverflow) {
			t.Fatalf("%q: overflowing row: got %v, want a norm error", body, err)
		}
		return
	case err != nil:
		t.Fatalf("%q: reference accepts, decoder rejects: %v", body, err)
	}
	if q.model != refModel {
		t.Fatalf("%q: model %q, reference %q", body, q.model, refModel)
	}
	got := q.rows
	if got.Rows() != refRows.Rows() || got.Cols() != refRows.Cols() || len(got.Data) != len(refRows.Data) {
		t.Fatalf("%q: shape %dx%d (%d values), reference %dx%d", body,
			got.Rows(), got.Cols(), len(got.Data), refRows.Rows(), refRows.Cols())
	}
	for i, v := range refRows.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%q: value %d is %v, reference %v", body, i, got.Data[i], v)
		}
	}
}

// assignBody is a JSON /v1/assign body of n random normal rows of d
// dimensions, as the load generators marshal them.
func assignBody(tb testing.TB, n, d int, seed int64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	req := assignReq{Model: "bench", Rows: make([][]float64, n)}
	for i := range req.Rows {
		req.Rows[i] = make([]float64, d)
		for j := range req.Rows[i] {
			req.Rows[i][j] = rng.NormFloat64()
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func FuzzAssignBody(f *testing.F) {
	f.Add(assignBody(f, 4, 16, 1))  // the d16 request shape
	f.Add(assignBody(f, 64, 32, 2)) // the d32 request shape
	for _, s := range []string{
		`{"model":"m","rows":[[1,2],[3,4]]}`,
		`{"MODEL":"m","ROWS":[[1]]}`,
		`{"Model":"m","rowſ":[[1]]}`,
		`{"model":"é😀","rows":[[1]]}`,
		"{\"model\":\"\xff\xfe\",\"rows\":[[1]]}",
		`{"x":{"a":[1,{"b":null,"c":[true,false,"s\"\\"]}],"d":-1.5e+3},"rows":[[1,2]],"model":"m"}`,
		`{"rows":[[-0]]}`,
		`{"rows":[[1e-400,4.9e-324]]}`,
		`{"rows":[[1e400]]}`,
		`{"rows":[[01]]}`,
		`{"rows":[[.5]]}`,
		`{"rows":[[1.]]}`,
		`{"rows":[[1e]]}`,
		`{"rows":[[1,2],[3]],"rows":[[4]]}`,
		`{"rows":[[1,2]],"rows":[[3,null]]}`,
		`{"rows":[[null]],"rows":[[1]]}`,
		`{"rows":[[1]],"rows":null}`,
		`{"model":"a","model":null}`,
		`{"rows":[[1,null]]}`,
		`{"rows":[null,[1]]}`,
		`{"rows":[null,null]}`,
		`{"rows":[[1e200,1e200]]}`,
		`{"rows":[[1]]}xyz`,
		`{"rows":[["1"]]}`,
		`{"rows":[[1]],"model":7}`,
		`{"rows":{}}`,
		`{}`,
		`[]`,
		`"x"`,
		`null`,
		`nullx`,
		`nul`,
		` `,
		``,
		`[[[[`,
		`{"x":[[[[`,
		"{\"model\":\"a\tb\"}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// FuzzAssignHandler drives the real /v1/assign handler, through the
// server's mux, with any body, on a single-node server and on a
// sharded coordinator over two in-process machines: a 2-centroid,
// 2-dimensional model behind a quota of 1. Every body is answered 200,
// 400, 413, 429 or 503 by both, never a 500 or a panic, and a 200
// carries one answer per row.
func FuzzAssignHandler(f *testing.F) {
	var handlers []http.Handler
	for _, opts := range []serverOptions{
		{threads: 1, nodes: 1, quota: 1},
		{threads: 1, nodes: 1, quota: 1, machines: 2},
	} {
		s, err := newServer(opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(s.close)
		h := s.mux()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/models",
			strings.NewReader(`{"name":"m","k":2,"rows":[[0,0],[0,1],[1,0],[1,1]]}`)))
		if w.Code != http.StatusCreated {
			f.Fatalf("create on %d machines: %d %s", opts.machines, w.Code, w.Body)
		}
		handlers = append(handlers, h)
	}
	for _, s := range []string{
		`{"model":"m","rows":[[0.25,1],[1,-0.5e-3]]}`,
		`{"model":"m","rows":[]}`,
		`{"model":"m","rows":null}`,
		`null`,
		`{"model":"m","rows":[[1,2,3]]}`,
		`{"model":"m","rows":[[1],[2,3]]}`,
		`{"model":"nope","rows":[[1,2]]}`,
		`{"model":"m","rows":[[1,null]]}`,
		`{"model":"m","rows":[[1e200,1e200]]}`,
		`{"model":"m","rows":[[1e400,0]]}`,
		`{"x":1e400,"model":"m","rows":[[1,2]]}`,
		`{"model":"m","rows":[[1.7976931348623157e308,0]]}`,
		`{"model":"m","rows":[[0.` + strings.Repeat("0", 40) + `1,12345678901234567890123]]}`,
		`{"model":"m","rows":[[1,2]]`,
		`{"model":"m","rows":[["1",2]]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for machines, h := range handlers {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body)))
			switch w.Code {
			case http.StatusOK:
				var q rowsReq
				var reply assignResp
				if err := q.decode(body); err != nil || json.Unmarshal(w.Body.Bytes(), &reply) != nil ||
					len(reply.Clusters) != q.rows.Rows() || len(reply.SqDists) != q.rows.Rows() {
					t.Fatalf("%q on %d machines: 200 with reply %s", body, machines+1, w.Body)
				}
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
				http.StatusServiceUnavailable:
			default:
				t.Fatalf("%q on %d machines: status %d: %s", body, machines+1, w.Code, w.Body)
			}
		}
	})
}

// TestDecodeDepthLimit pins the nesting limit to encoding/json's on
// both sides: an object holding maxDepth-1 nested arrays decodes, one
// more level does not.
func TestDecodeDepthLimit(t *testing.T) {
	for depth, ok := range map[int]bool{maxDepth - 1: true, maxDepth: false} {
		body := []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"rows":[[1]]}`)
		var q rowsReq
		if err := q.decode(body); (err == nil) != ok {
			t.Errorf("%d nested arrays: err = %v, want ok = %v", depth, err, ok)
		}
		checkDecode(t, body)
	}
}

// TestDecodeAllocs gates a steady-state decode of the d32-shaped body
// (64 rows of 32 numbers, about 38 KB) at 8 allocations; json.Decoder
// plus FromRows made 411.
func TestDecodeAllocs(t *testing.T) {
	body := assignBody(t, 64, 32, 3)
	var q rowsReq
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(body)
		if err := q.read(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("decoding the d32 body: %v allocations, want <= 8", allocs)
	}
	if q.rows.Rows() != 64 || q.rows.Cols() != 32 {
		t.Fatalf("decoded %dx%d, want 64x32", q.rows.Rows(), q.rows.Cols())
	}
}

// TestAssignReplyBytes holds the appended reply to the bytes
// json.Encoder writes for assignResp.
func TestAssignReplyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dists := []float64{
		0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 9.99e-7, 1e-6,
		123456.789, 1e20, 1e21, 1.5e300, math.MaxFloat64,
	}
	for i := 0; i < 200; i++ {
		dists = append(dists, math.Abs(rng.NormFloat64())*math.Pow(10, float64(rng.Intn(50)-25)))
	}
	for _, n := range []int{0, 1, 7, len(dists)} {
		as := make([]serve.Assignment, n)
		want := assignResp{Version: 3, Clusters: make([]int32, n), SqDists: make([]float64, n)}
		if n == 0 {
			want.Version = 0
		}
		for i := range as {
			as[i] = serve.Assignment{Cluster: int32(rng.Intn(1000)), SqDist: dists[i], Version: 3}
			want.Clusters[i], want.SqDists[i] = as[i].Cluster, as[i].SqDist
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		got, err := appendAssignReply(nil, as)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("%d rows:\n got %s\nwant %s", n, got, buf.Bytes())
		}
	}
	for _, bad := range []float64{math.Inf(1), math.NaN()} {
		if _, err := appendAssignReply(nil, []serve.Assignment{{SqDist: 1}, {SqDist: bad}}); err == nil {
			t.Errorf("distance %v encoded without error", bad)
		}
	}
}

// BenchmarkAssignDecode times reading and decoding the benchmark
// workloads' request bodies: d16 (4 rows of 16) and d32 (64 rows of 32).
func BenchmarkAssignDecode(b *testing.B) {
	for _, s := range []struct {
		name string
		n, d int
	}{{"d16", 4, 16}, {"d32", 64, 32}} {
		b.Run(s.name, func(b *testing.B) {
			body := assignBody(b, s.n, s.d, 4)
			var q rowsReq
			r := bytes.NewReader(body)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				r.Reset(body)
				if err := q.read(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAssignPooledConcurrent drives /v1/assign and /v1/observe from
// several clients at once with distinct bodies. Pooled requests carry
// their rows into the batcher, so a request recycled before its answer
// was computed would show up as another client's answer.
func TestAssignPooledConcurrent(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	if code, body := postJSON(t, ts.URL+"/v1/models",
		`{"name":"bench","k":8,"iters":10,"spec":{"n":800,"d":4,"clusters":8,"spread":0.05,"seed":3}}`); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	const clients, perClient = 4, 25
	bodies := make([]string, clients*perClient)
	want := make([]string, len(bodies))
	for i := range bodies {
		bodies[i] = string(assignBody(t, 1+i%7, 4, int64(100+i)))
		want[i] = postRaw(t, ts.URL+"/v1/assign", bodies[i])
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				i := (c*perClient + j*7) % len(bodies)
				if got := postRaw(t, ts.URL+"/v1/assign", bodies[i]); got != want[i] {
					t.Errorf("body %d: got %s, want %s", i, got, want[i])
					return
				}
				// Interleave writes so observe requests share the pool.
				if got := postRaw(t, ts.URL+"/v1/observe", `{"model":"bench","rows":[[0.5,0.5,0.5,0.5]]}`); !strings.Contains(got, `"seen"`) {
					t.Errorf("observe: %s", got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// postRaw posts body and returns the reply, failing on a non-200.
func postRaw(t *testing.T, url, body string) string {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return ""
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST %s: %d %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}

// TestAssignFloat32Overflow covers a row the decoder accepts, since its
// float64 squared norm is finite, whose distances overflow on a
// -precision 32 server: the reply encoder answers 400 naming the row
// instead of a 200 with an empty body.
func TestAssignFloat32Overflow(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{precision: kmeans.Precision32})
	if code, body := postJSON(t, ts.URL+"/v1/models",
		`{"name":"e","k":2,"rows":[[0,0],[0,1],[1,0],[1,1]]}`); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	code, body := postJSON(t, ts.URL+"/v1/assign", `{"model":"e","rows":[[0,1],[1e20,0]]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("assign: %d %v, want 400", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "row 1") {
		t.Fatalf("error %q does not name row 1", msg)
	}
}
