package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"spca"
	"spca/internal/matrix"
	"spca/internal/serve"
)

// The direct-call ladder times each layer's public functions on the
// workload's own shapes, at the run's GOMAXPROCS, with heap objects per call
// counted process-wide.

// ladderBudget is the measuring time each ladder rung gets.
const ladderBudget = 250 * time.Millisecond

// timing is one rung's measurement.
type timing struct {
	nsPerCall     float64 // median over batches of calls
	allocsPerCall float64
	calls         int
}

// timeCall warms fn up, sizes a batch of calls to about a twentieth of
// budget, and runs batches until budget is spent (at least five). It
// reports the median per-call time over batches.
func timeCall(budget time.Duration, fn func()) timing {
	fn()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= budget/20 || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var per []float64
	_, o0, _ := memStats()
	start := time.Now()
	for len(per) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	_, o1, _ := memStats()
	calls := n * len(per)
	return timing{nsPerCall: median(per), allocsPerCall: float64(o1-o0) / float64(calls), calls: calls}
}

func randDense(rng *rand.Rand, r, c int) *matrix.Dense {
	m := matrix.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// kernelLadder times the four matrix kernels on the workload's shapes.
func (b *bench) kernelLadder() {
	sh := b.w.shapes
	rng := rand.New(rand.NewPCG(b.o.seed, 7))
	type rung struct {
		name  string
		flops float64
		fn    func()
	}

	spB := randDense(rng, b.y.C, sh.spK)
	spOut := matrix.NewDense(b.y.R, sh.spK)
	nnz := 0
	for i := 0; i < b.y.R; i++ {
		nnz += b.y.Row(i).NNZ()
	}

	mA, mB := randDense(rng, sh.mul[0], sh.mul[1]), randDense(rng, sh.mul[1], sh.mul[2])
	mOut := matrix.NewDense(sh.mul[0], sh.mul[2])

	tA, tB := randDense(rng, sh.mulT[0], sh.mulT[1]), randDense(rng, sh.mulT[0], sh.mulT[2])
	tOut := matrix.NewDense(sh.mulT[1], sh.mulT[2])

	n, rhsRows := sh.solve[0], sh.solve[1]
	g := randDense(rng, n, n)
	spd := matrix.NewDense(n, n)
	g.MulTInto(g, spd)
	for i := 0; i < n; i++ {
		spd.Data[i*n+i] += float64(n)
	}
	rhs := randDense(rng, rhsRows, n)
	sOut := matrix.NewDense(rhsRows, n)
	ws := &matrix.SPDWorkspace{}
	solveErr := error(nil)

	rungs := []rung{
		{"matrix.sparse_muldense_us", 2 * float64(nnz) * float64(sh.spK), func() { b.y.MulDenseInto(spB, spOut) }},
		{"matrix.mul_us", 2 * float64(sh.mul[0]*sh.mul[1]*sh.mul[2]), func() { mA.MulInto(mB, mOut) }},
		{"matrix.mult_us", 2 * float64(sh.mulT[0]*sh.mulT[1]*sh.mulT[2]), func() { tA.MulTInto(tB, tOut) }},
		{"matrix.solvespd_us", float64(n*n*n)/3 + 2*float64(rhsRows*n*n), func() {
			if err := matrix.SolveSPDInto(spd, rhs, sOut, ws); err != nil {
				solveErr = err
			}
		}},
	}
	var flops, ns, allocs float64
	detail := map[string]any{}
	for _, r := range rungs {
		t := timeCall(ladderBudget, r.fn)
		b.res.set(r.name, "us", t.nsPerCall/1e3, t.calls)
		flops += r.flops
		ns += t.nsPerCall
		allocs += t.allocsPerCall
		detail[r.name] = map[string]any{"calls": t.calls, "allocs_per_call": t.allocsPerCall, "flops": r.flops}
	}
	b.res.check(solveErr == nil, "SolveSPDInto: %v", solveErr)
	b.res.set("matrix.gflops", "GFLOP/s", flops/ns, len(rungs))
	b.res.set("matrix.allocs_per_call", "count", allocs/float64(len(rungs)), len(rungs))
	detail["gflops_note"] = "computed from operation counts, not measured by hardware counters"
	b.res.detail["matrix"] = detail
}

// denseRows converts the first k rows of y to a dense batch.
func denseRows(y *spca.Sparse, first, k int) *matrix.Dense {
	out := matrix.NewDense(k, y.C)
	for i := 0; i < k; i++ {
		row := y.Row((first + i) % y.R)
		for j, c := range row.Indices {
			out.Data[i*y.C+c] = row.Values[j]
		}
	}
	return out
}

// rowsOf views m as a slice of rows, the JSON protocol's layout.
func rowsOf(m *matrix.Dense) [][]float64 {
	rows := make([][]float64, m.R)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// floatBytes is the little-endian encoding of xs, the layout the binary
// protocol carries result rows in.
func floatBytes(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// serveLadder times the serving layers on model m: the transform itself,
// the HTTP handler in process, a binary round trip over loopback, registry
// publishes, and model save and load.
func (b *bench) serveLadder(m *spca.Model) error {
	dir, err := os.MkdirTemp(b.o.workdir, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dims, d := m.Dims()
	batch := denseRows(b.y, 0, serveBatchRows)
	want := matrix.NewDense(serveBatchRows, d)
	if _, err := m.TransformDenseInto(want, batch); err != nil {
		return fmt.Errorf("transform: %w", err)
	}
	wantBytes := floatBytes(want.Data)
	detail := map[string]any{}

	reg, err := serve.NewRegistry(filepath.Join(dir, "registry"))
	if err != nil {
		return err
	}
	pubErr := error(nil)
	t := timeCall(ladderBudget, func() {
		if _, err := reg.Publish(m); err != nil {
			pubErr = err
		}
	})
	b.res.check(pubErr == nil, "registry publish: %v", pubErr)
	b.res.set("serve.publish_ms", "ms", t.nsPerCall/1e6, t.calls)
	live := reg.Latest().Version

	dst := matrix.NewDense(serveBatchRows, d)
	t = timeCall(ladderBudget, func() { _, _ = m.TransformDenseInto(dst, batch) })
	b.res.check(bytes.Equal(floatBytes(dst.Data), wantBytes), "repeated TransformDenseInto changed its output")
	b.res.set("serve.transform_us", "us", t.nsPerCall/1e3, t.calls)
	detail["transform_allocs_per_call"] = t.allocsPerCall

	srv := serve.NewServer(reg, nil)
	body, err := json.Marshal(map[string]any{"rows": rowsOf(batch)})
	if err != nil {
		return err
	}
	h := srv.Handler()
	httpCalls, httpBad := 0, 0
	var last *httptest.ResponseRecorder
	t = timeCall(ladderBudget, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/transform", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		httpCalls++
		if rec.Code != http.StatusOK {
			httpBad++
		}
		last = rec
	})
	b.res.set("serve.http_inproc_us", "us", t.nsPerCall/1e3, t.calls)
	detail["http_inproc_allocs_per_call"] = t.allocsPerCall
	b.res.check(httpBad == 0, "in-process HTTP transform: %d of %d calls failed", httpBad, httpCalls)
	var resp struct {
		Version uint64      `json:"version"`
		Rows    [][]float64 `json:"rows"`
	}
	if err := json.Unmarshal(last.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("in-process HTTP response: %w", err)
	}
	var flat []float64
	for _, r := range resp.Rows {
		flat = append(flat, r...)
	}
	b.res.check(resp.Version == live && bytes.Equal(floatBytes(flat), wantBytes),
		"in-process HTTP transform: version %d (live %d) or rows differ from TransformDenseInto", resp.Version, live)

	rt, binCalls, binBad, err := b.binaryRoundTrips(srv, batch, live, wantBytes)
	if err != nil {
		return err
	}
	b.res.check(binBad == 0, "binary round trip: %d of %d responses wrong", binBad, binCalls)
	b.res.set("serve.bin_rtt_us", "us", rt.nsPerCall/1e3, rt.calls)
	b.res.set("serve.allocs_per_req", "count", rt.allocsPerCall, rt.calls)

	st := srv.Stats()
	bin, web := st["bin/transform"], st["http/transform"]
	b.res.check(bin.Requests-bin.Errors == int64(binCalls) && web.Requests-web.Errors == int64(httpCalls),
		"server counted %d binary and %d HTTP successes, client %d and %d",
		bin.Requests-bin.Errors, web.Requests-web.Errors, binCalls, httpCalls)
	b.res.set("serve.server_p50_ms", "ms", bin.P50ms, int(min(bin.Requests, 4096)))
	b.res.set("serve.server_p99_ms", "ms", bin.P99ms, int(min(bin.Requests, 4096)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}

	path := filepath.Join(dir, "model.spcm")
	saveErr := error(nil)
	t = timeCall(ladderBudget, func() {
		if err := m.SaveFile(path); err != nil {
			saveErr = err
		}
	})
	b.res.check(saveErr == nil, "model save: %v", saveErr)
	b.res.set("checkpoint.save_ms", "ms", t.nsPerCall/1e6, t.calls)
	if fi, err := os.Stat(path); err == nil {
		b.res.set("checkpoint.model_kb", "KB", float64(fi.Size())/1024, 1)
	}
	fp := fingerprint(m)
	loadBad := 0
	t = timeCall(ladderBudget, func() {
		lm, err := spca.LoadModelFile(path)
		if err != nil || fingerprint(lm) != fp {
			loadBad++
		}
	})
	b.res.check(loadBad == 0, "model load: %d loads failed or changed the model", loadBad)
	b.res.set("checkpoint.load_ms", "ms", t.nsPerCall/1e6, t.calls)
	detail["model"] = map[string]any{"dims": dims, "components": d, "algorithm": string(m.Algorithm)}
	b.res.detail["serve_ladder"] = detail
	return nil
}

// binaryRoundTrips serves srv's binary protocol on loopback and times
// closed-loop round trips of one pre-encoded transform frame. It also
// returns every call made, warm-up included, and how many got a wrong
// answer.
func (b *bench) binaryRoundTrips(srv *serve.Server, batch *matrix.Dense, live uint64, want []byte) (t timing, calls, bad int, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return timing{}, 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeBinary(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-done
		return timing{}, 0, 0, err
	}
	frame, err := serve.EncodeRequest(nil, opTransform, 0, batch.R, batch.C, batch.Data)
	if err != nil {
		conn.Close()
		ln.Close()
		<-done
		return timing{}, 0, 0, err
	}
	rd := bufio.NewReaderSize(conn, 64<<10)
	buf := make([]byte, 64<<10)
	var lenBuf [4]byte
	t = timeCall(ladderBudget, func() {
		calls++
		if _, err := conn.Write(frame); err != nil {
			bad++
			return
		}
		if _, err := io.ReadFull(rd, lenBuf[:]); err != nil {
			bad++
			return
		}
		n := int(binary.LittleEndian.Uint32(lenBuf[:]))
		if n > len(buf) {
			buf = make([]byte, n)
		}
		p := buf[:n]
		if _, err := io.ReadFull(rd, p); err != nil {
			bad++
			return
		}
		if len(p) < 20 || p[0] != 0 || binary.LittleEndian.Uint64(p[4:]) != live || !bytes.Equal(p[20:], want) {
			bad++
		}
	})
	conn.Close()
	ln.Close()
	if err := <-done; err != nil {
		return timing{}, 0, 0, fmt.Errorf("binary listener: %w", err)
	}
	return t, calls, bad, nil
}
