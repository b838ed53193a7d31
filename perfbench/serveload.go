package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spca"
	"spca/internal/matrix"
	"spca/internal/serve"
)

// serve-mixed load. One binary connection runs an open loop: requests are
// due on a fixed schedule, sent when due whether or not earlier ones were
// answered (pipelined on the connection), and timed from when they were due.
// One HTTP keep-alive connection runs its own fixed-rate schedule, and a
// publisher rotates the pre-fitted models into the registry beside them.
// Every rate here is a constant; nothing is derived from a run.
const (
	loRate       = 1000.0 // binary requests/s of the lo step
	hiRate       = 3000.0 // binary requests/s of the hi step
	httpRate     = 10.0   // HTTP requests/s, throughout the measured steps
	reconstructP = 0.10   // share of requests that are reconstructs
	publishEvery = 250 * time.Millisecond
	rateSplits   = 3  // lo and hi each run as this many alternating steps
	nBatches     = 32 // distinct request batches

	// p99LimitMs is the binary p99 latency limit max_rate_rps is held to.
	p99LimitMs = 20.0
	// drainWait is how long a step waits after its last send for the
	// answers still outstanding; any not answered by then count as missing
	// the latency limit, at the latency they had reached.
	drainWait = time.Second
	// probeSeconds is the longest a max-rate probe runs (a twentieth of the
	// run when that is shorter), and maxProbes bounds how many run: seven
	// halve any bracket of the ladder to one rung.
	probeSeconds = 1.0
	maxProbes    = 7
)

// rateLadder is the fixed ladder max_rate_rps is searched on: 250 req/s
// rising in 10% steps.
var rateLadder = func() []float64 {
	var r []float64
	for x := 250.0; x < 60000; x *= 1.1 {
		r = append(r, math.Round(x))
	}
	return r
}()

const (
	opTransform   = 1 // binary protocol opcodes
	opReconstruct = 2
)

// serveEnv is serve-mixed's running system and its expected answers.
type serveEnv struct {
	b      *bench
	models []*spca.Model // version v serves models[(v-1) % len(models)]
	dir    string
	reg    *serve.Registry
	srv    *serve.Server

	httpSrv        *http.Server
	httpLn, binLn  net.Listener
	listeners      sync.WaitGroup
	listenErr      [2]error
	published      atomic.Uint64         // publishes begun; no valid version exceeds it
	frames         [nBatches][2][]byte   // binary request frames
	httpReqs       [nBatches][2][]byte   // whole HTTP requests, headers included
	want           [][nBatches][2][]byte // [model][batch][op] response rows, little-endian
	wantJSON       [][nBatches][2][]byte // the same rows as the HTTP body after the version
	clientBinOK    atomic.Int64          // binary responses with status OK
	clientHTTPOK   atomic.Int64
	sent           int64 // binary requests sent, all steps
	unansweredSeen bool
}

// newServeEnv builds the requests and their expected answers for every
// model, persists a registry in a temp dir under the work dir, publishes the
// first model, and serves both protocols on loopback.
func (b *bench) newServeEnv() (*serveEnv, error) {
	e := &serveEnv{b: b}
	for _, alg := range b.w.algs {
		e.models = append(e.models, &b.ref[alg].res.Model)
	}
	dims, d := e.models[0].Dims()
	e.want = make([][nBatches][2][]byte, len(e.models))
	e.wantJSON = make([][nBatches][2][]byte, len(e.models))
	for j := 0; j < nBatches; j++ {
		in := [2]*matrix.Dense{denseRows(b.y, j*serveBatchRows, serveBatchRows), matrix.NewDense(serveBatchRows, d)}
		if _, err := e.models[0].TransformDenseInto(in[1], in[0]); err != nil {
			return nil, err
		}
		for k, o := range []byte{opTransform, opReconstruct} {
			frame, err := serve.EncodeRequest(nil, o, 0, in[k].R, in[k].C, in[k].Data)
			if err != nil {
				return nil, err
			}
			e.frames[j][k] = frame
			body, err := json.Marshal(map[string]any{"rows": rowsOf(in[k])})
			if err != nil {
				return nil, err
			}
			path := [2]string{"/v1/transform", "/v1/reconstruct"}[k]
			e.httpReqs[j][k] = append([]byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\n"+
				"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))), body...)
		}
		for mi, m := range e.models {
			t, r := matrix.NewDense(serveBatchRows, d), matrix.NewDense(serveBatchRows, dims)
			if _, err := m.TransformDenseInto(t, in[0]); err != nil {
				return nil, err
			}
			if _, err := m.ReconstructInto(r, in[1]); err != nil {
				return nil, err
			}
			e.want[mi][j] = [2][]byte{floatBytes(t.Data), floatBytes(r.Data)}
			for k, out := range []*matrix.Dense{t, r} {
				rows, err := json.Marshal(rowsOf(out))
				if err != nil {
					return nil, err
				}
				e.wantJSON[mi][j][k] = append(append([]byte(`,"rows":`), rows...), "}\n"...)
			}
		}
	}

	var err error
	if e.dir, err = os.MkdirTemp(b.o.workdir, "serve-"); err != nil {
		return nil, err
	}
	if e.reg, err = serve.NewRegistry(filepath.Join(e.dir, "registry")); err != nil {
		e.close()
		return nil, err
	}
	if err := e.publish(); err != nil {
		e.close()
		return nil, err
	}
	e.srv = serve.NewServer(e.reg, nil)
	if e.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}
	if e.binLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}
	e.httpSrv = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	e.listeners.Add(2)
	go func() {
		defer e.listeners.Done()
		if err := e.httpSrv.Serve(e.httpLn); !errors.Is(err, http.ErrServerClosed) {
			e.listenErr[0] = err
		}
	}()
	go func() {
		defer e.listeners.Done()
		e.listenErr[1] = e.srv.ServeBinary(e.binLn)
	}()
	return e, nil
}

// publish rotates the next model in and checks it got the next version.
func (e *serveEnv) publish() error {
	k := e.published.Add(1)
	entry, err := e.reg.Publish(e.models[(k-1)%uint64(len(e.models))])
	if err != nil {
		return err
	}
	if entry.Version != k {
		return fmt.Errorf("publish %d got version %d", k, entry.Version)
	}
	return nil
}

// close stops both listeners and the server, waits for the listener
// goroutines, and removes the registry directory.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var errs []error
	if e.httpSrv != nil {
		errs = append(errs, e.httpSrv.Shutdown(ctx))
	} else if e.httpLn != nil {
		e.httpLn.Close()
	}
	if e.binLn != nil {
		e.binLn.Close()
	}
	if e.srv != nil {
		errs = append(errs, e.srv.Shutdown(ctx))
	}
	e.listeners.Wait()
	errs = append(errs, e.listenErr[0], e.listenErr[1])
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// modelFor maps a served version to its model index, or -1 when the
// version was never published.
func (e *serveEnv) modelFor(v uint64) int {
	if v == 0 || v > e.published.Load() {
		return -1
	}
	return int((v - 1) % uint64(len(e.models)))
}

// checkBinary verifies one binary response payload for request (batch j,
// op k): status OK, a published version, and rows bit-equal to that
// version's model.
func (e *serveEnv) checkBinary(p []byte, j, k int) bool {
	if e.b.o.tamper != nil {
		e.b.o.tamper(p)
	}
	if len(p) < 20 || p[0] != 0 {
		return false
	}
	e.clientBinOK.Add(1)
	mi := e.modelFor(binary.LittleEndian.Uint64(p[4:]))
	return mi >= 0 && bytes.Equal(p[20:], e.want[mi][j][k])
}

// coarseWindow is how close to a due time the sender stops using Go's
// timers. They wake a sleeping goroutine up to about a millisecond late (the
// netpoller waits in whole milliseconds), which would otherwise dominate
// every latency timed from due. The last stretch sleeps in nanosleep(2)
// instead, which blocks only the sender's thread and wakes within tens of
// microseconds; spinning would be as precise but would take one of the
// host's CPUs away from the server.
const coarseWindow = 2 * time.Millisecond

// waitUntil returns once at least dueNs nanoseconds have passed since t0.
func waitUntil(t0 time.Time, dueNs int64) {
	if wait := time.Duration(dueNs - time.Since(t0).Nanoseconds()); wait > coarseWindow {
		time.Sleep(wait - coarseWindow)
	}
	for {
		wait := dueNs - time.Since(t0).Nanoseconds()
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait)
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// step is one open-loop rate step of the binary connection.
type step struct {
	Name       string  `json:"name"`
	Rate       float64 `json:"rate_rps"`
	Seconds    float64 `json:"seconds"`
	Sent       int     `json:"sent"`
	Answered   int     `json:"answered"`
	Wrong      int     `json:"wrong"`
	P50ms      float64 `json:"p50_ms"`
	P99ms      float64 `json:"p99_ms"`
	LateP50ms  float64 `json:"gen_late_p50_ms"`
	LateP99ms  float64 `json:"gen_late_p99_ms"`
	BacklogMid int     `json:"backlog_mid"`
	BacklogEnd int     `json:"backlog"`
	Grew       bool    `json:"backlog_grew"`
	Pass       bool    `json:"meets_limit"`
	// AllocBytes is the process's heap allocation from the first send to
	// the end of the drain.
	AllocBytes uint64 `json:"alloc_bytes"`

	lat []float64 // per-request latency from due, ms
}

// runStep sends rate requests/s for dur on a fresh binary connection.
func (e *serveEnv) runStep(name string, rate float64, dur time.Duration, rng *rand.Rand) (step, error) {
	n := max(1, int(rate*dur.Seconds()))
	kind := make([]uint8, n) // batch*2 + op
	for i := range kind {
		k := 0
		if rng.Float64() < reconstructP {
			k = 1
		}
		kind[i] = uint8(rng.IntN(nBatches)*2 + k)
	}
	due := func(i int) int64 { return int64(float64(i) * 1e9 / rate) }
	e.sent += int64(n)
	sentAt := make([]int64, n)
	recvAt := make([]int64, n)

	conn, err := net.Dial("tcp", e.binLn.Addr().String())
	if err != nil {
		return step{}, err
	}
	defer conn.Close()
	var answered atomic.Int64
	wrong := 0
	t0 := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rd := bufio.NewReaderSize(conn, 256<<10)
		buf := make([]byte, 128<<10)
		var lenBuf [4]byte
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(rd, lenBuf[:]); err != nil {
				return
			}
			sz := int(binary.LittleEndian.Uint32(lenBuf[:]))
			if sz > len(buf) {
				buf = make([]byte, sz)
			}
			if _, err := io.ReadFull(rd, buf[:sz]); err != nil {
				return
			}
			recvAt[i] = time.Since(t0).Nanoseconds()
			if !e.checkBinary(buf[:sz], int(kind[i]/2), int(kind[i]%2)) {
				wrong++
			}
			answered.Add(1)
		}
	}()

	bw := bufio.NewWriterSize(conn, 256<<10)
	st := step{Name: name, Rate: rate, Seconds: dur.Seconds(), Sent: n}
	alloc0, _, _ := memStats()
	var werr error
	for i := 0; i < n && werr == nil; {
		for i < n && due(i) <= time.Since(t0).Nanoseconds() {
			sentAt[i] = time.Since(t0).Nanoseconds()
			if _, werr = bw.Write(e.frames[kind[i]/2][kind[i]%2]); werr != nil {
				break
			}
			i++
			if i == n/2 {
				st.BacklogMid = i - int(answered.Load())
			}
		}
		if werr == nil {
			werr = bw.Flush()
		}
		if i < n {
			waitUntil(t0, due(i))
		}
	}
	sendEnd := time.Since(t0)
	st.BacklogEnd = n - int(answered.Load())
	if err := conn.SetReadDeadline(t0.Add(sendEnd + drainWait)); err != nil {
		conn.Close() // without a deadline, closing is what ends the reader
	}
	<-done
	alloc1, _, _ := memStats()
	st.AllocBytes = alloc1 - alloc0
	if werr != nil {
		return st, fmt.Errorf("sending: %w", werr)
	}
	drainEnd := (sendEnd + drainWait).Nanoseconds()

	st.Answered = int(answered.Load())
	st.Wrong = wrong
	if st.Answered < n {
		e.unansweredSeen = true
	}
	lat := make([]float64, n)
	late := make([]float64, n)
	for i := 0; i < n; i++ {
		end := drainEnd
		if i < st.Answered {
			end = recvAt[i]
		}
		lat[i] = float64(end-due(i)) / 1e6
		late[i] = float64(sentAt[i]-due(i)) / 1e6
	}
	st.lat = lat
	st.P50ms = quantile(lat, 0.50)
	st.P99ms = quantile(lat, 0.99)
	st.LateP50ms = quantile(late, 0.50)
	st.LateP99ms = quantile(late, 0.99)
	st.Grew = st.BacklogEnd > st.BacklogMid+max(16, int(rate*0.005))
	st.Pass = st.P99ms <= p99LimitMs && !st.Grew
	return st, nil
}

// httpLoop runs the HTTP connection's fixed-rate schedule until stop
// closes, returning per-request latency from due, in ms.
func (e *serveEnv) httpLoop(stop <-chan struct{}, rng *rand.Rand) (lat []float64, wrong int, err error) {
	conn, err := net.Dial("tcp", e.httpLn.Addr().String())
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	hc := &httpConn{c: conn, rd: bufio.NewReaderSize(conn, 64<<10)}
	timer := time.NewTimer(0)
	defer timer.Stop()
	t0 := time.Now()
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(float64(i) * 1e9 / httpRate))
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return lat, wrong, nil
		case <-timer.C:
		}
		j, k := rng.IntN(nBatches), 0
		if rng.Float64() < reconstructP {
			k = 1
		}
		status, body, err := hc.roundTrip(e.httpReqs[j][k])
		if err != nil {
			return lat, wrong, err
		}
		lat = append(lat, float64(time.Since(due).Nanoseconds())/1e6)
		if status != http.StatusOK {
			wrong++
			continue
		}
		e.clientHTTPOK.Add(1)
		if !e.checkHTTP(body, j, k) {
			wrong++
		}
	}
}

var versionPrefix = []byte(`{"version":`)

// checkHTTP verifies one HTTP response body for request (batch j, op k): a
// published version, and rows equal to that version's model. The server
// encodes floats in Go's shortest round-trip form, so equal bytes mean
// bit-equal rows.
func (e *serveEnv) checkHTTP(body []byte, j, k int) bool {
	if !bytes.HasPrefix(body, versionPrefix) {
		return false
	}
	rest := body[len(versionPrefix):]
	v, n := parseUint(rest, 10)
	mi := e.modelFor(v)
	return n > 0 && mi >= 0 && bytes.Equal(rest[n:], e.wantJSON[mi][j][k])
}

// publishLoop rotates a model in every publishEvery until stop closes,
// returning each Publish latency in ms.
func (e *serveEnv) publishLoop(stop <-chan struct{}) (lat []float64, err error) {
	tick := time.NewTicker(publishEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return lat, nil
		case <-tick.C:
		}
		t0 := time.Now()
		if err := e.publish(); err != nil {
			return lat, err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
	}
}

// serveSetup is one serve-mixed set-up: the fit set-up, then the serving
// environment, warmed by a short step at the lo rate.
func (b *bench) serveSetup() (*serveEnv, time.Duration, error) {
	t0 := time.Now()
	if _, err := b.setup(); err != nil {
		return nil, 0, err
	}
	e, err := b.newServeEnv()
	if err != nil {
		return nil, 0, err
	}
	st, err := e.runStep("warm-up", loRate, 250*time.Millisecond, rand.New(rand.NewPCG(b.o.seed, 1)))
	if err != nil {
		e.close()
		return nil, 0, err
	}
	b.countStep(st)
	return e, time.Since(t0), nil
}

// countStep adds a step's requests to the run's attempted and failed counts.
func (b *bench) countStep(st step) {
	b.res.attempted += st.Sent
	b.res.failN(st.Wrong, "step %s: %d of %d binary responses were wrong", st.Name, st.Wrong, st.Answered)
}

// runServe is serve-mixed's untraced run.
func (b *bench) runServe() error {
	var e *serveEnv
	err := b.setupRepeated(func() (time.Duration, error) {
		if old := e; old != nil {
			e = nil
			if err := old.close(); err != nil {
				return 0, err
			}
		}
		var d time.Duration
		var err error
		e, d, err = b.serveSetup()
		return d, err
	})
	if err != nil {
		if e != nil {
			e.close()
		}
		return err
	}
	err = b.serveMeasure(e)
	if cerr := e.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stopping the server: %w", cerr)
	}
	return err
}

func (b *bench) serveMeasure(e *serveEnv) error {
	total := b.o.seconds
	stepDur := time.Duration(0.3 * total * float64(time.Second))
	rng := rand.New(rand.NewPCG(b.o.seed, 2))

	stop := make(chan struct{})
	var bg sync.WaitGroup
	var httpLat, pubLat []float64
	var httpWrong int
	var httpErr, pubErr error
	bg.Add(2)
	go func() {
		defer bg.Done()
		httpLat, httpWrong, httpErr = e.httpLoop(stop, rand.New(rand.NewPCG(b.o.seed, 3)))
	}()
	go func() {
		defer bg.Done()
		pubLat, pubErr = e.publishLoop(stop)
	}()

	var steps []step
	var runErr error
	// lo and hi alternate in short steps, so a slow stretch of the host
	// lands on both rates instead of on one.
	var loLat []float64
	var loSent, hiSent int
	var loadAlloc uint64
	for i := 0; i < 2*rateSplits && runErr == nil; i++ {
		name, rate := "lo", loRate
		if i%2 == 1 {
			name, rate = "hi", hiRate
		}
		st, err := e.runStep(name, rate, stepDur/rateSplits, rng)
		if err != nil {
			runErr = err
			break
		}
		steps = append(steps, st)
		loadAlloc += st.AllocBytes
		if i%2 == 0 {
			loLat = append(loLat, st.lat...)
			loSent += st.Sent
		} else {
			hiSent += st.Sent
		}
	}
	maxRate := 0.0
	if runErr == nil {
		probe := time.Duration(min(probeSeconds, total/20) * float64(time.Second))
		maxRate, runErr = e.searchMaxRate(rng, &steps, probe)
	}
	close(stop)
	bg.Wait()
	if runErr != nil {
		return runErr
	}
	if httpErr != nil {
		return fmt.Errorf("http client: %w", httpErr)
	}
	if pubErr != nil {
		return fmt.Errorf("publisher: %w", pubErr)
	}

	for _, st := range steps {
		b.countStep(st)
	}
	b.res.attempted += len(httpLat) + len(pubLat)
	b.res.failN(httpWrong, "%d of %d HTTP responses were wrong", httpWrong, len(httpLat))

	stats := e.srv.Stats()
	srvBin := stats["bin/transform"].Requests + stats["bin/reconstruct"].Requests -
		stats["bin/transform"].Errors - stats["bin/reconstruct"].Errors
	srvHTTP := stats["http/transform"].Requests + stats["http/reconstruct"].Requests -
		stats["http/transform"].Errors - stats["http/reconstruct"].Errors
	cliBin, cliHTTP := e.clientBinOK.Load(), e.clientHTTPOK.Load()
	// Requests a step stopped waiting for were still served, so the server
	// may count more than the client then, but never more than were sent.
	binOK := srvBin == cliBin || (e.unansweredSeen && srvBin > cliBin && srvBin <= e.sent)
	b.res.check(binOK && srvHTTP == cliHTTP,
		"server counted %d binary and %d HTTP successes, client %d and %d", srvBin, srvHTTP, cliBin, cliHTTP)

	perReq := float64(loadAlloc) / (1 << 20) / float64(loSent+hiSent)
	b.res.set("p50_ms", "ms", quantile(loLat, 0.5), len(loLat))
	b.res.set("alloc_mb", "MB", perReq, loSent+hiSent)
	b.res.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	b.res.detail["per_algorithm"] = b.refDetail()
	b.res.detail["max_rate_rps"] = maxRate
	b.res.detail["steps"] = steps
	b.res.detail["http"] = latencySummary(httpLat, map[string]any{"rate_rps": httpRate})
	b.res.detail["publish"] = latencySummary(pubLat, map[string]any{"every_s": publishEvery.Seconds()})
	b.res.detail["server_stats"] = stats
	b.res.detail["limits"] = map[string]any{"p99_limit_ms": p99LimitMs, "drain_wait_s": drainWait.Seconds(),
		"probe_s": probeSeconds, "ladder_step": "10%", "lo_rps": loRate, "hi_rps": hiRate}
	return nil
}

// latencySummary adds the count, median and p99 of lat (ms) to into.
func latencySummary(lat []float64, into map[string]any) map[string]any {
	into["requests"] = len(lat)
	if len(lat) > 0 {
		into["p50_ms"], into["p99_ms"] = quantile(lat, 0.5), quantile(lat, 0.99)
	}
	return into
}

// searchMaxRate bisects the fixed rate ladder for the highest rung whose
// step meets the p99 limit without a growing backlog, starting from the
// bracket the lo and hi steps already give. Probe steps are appended to
// *steps. At most maxProbes probes run, enough to close any bracket.
func (e *serveEnv) searchMaxRate(rng *rand.Rand, steps *[]step, probe time.Duration) (float64, error) {
	// A rate passes only if every step run at it passed.
	passAt := map[float64]bool{}
	for _, st := range *steps {
		ok, seen := passAt[st.Rate]
		passAt[st.Rate] = st.Pass && (ok || !seen)
	}
	low, high := -1, len(rateLadder)
	for rate, pass := range passAt {
		for k, r := range rateLadder {
			if pass && r <= rate && k > low {
				low = k
			}
			if !pass && r >= rate && k < high {
				high = k
			}
		}
	}
	if low >= high { // the steps disagree: search the whole ladder
		low, high = -1, len(rateLadder)
	}
	for p := 0; high-low > 1 && p < maxProbes; p++ {
		mid := (low + high) / 2
		st, err := e.runStep("probe", rateLadder[mid], probe, rng)
		if err != nil {
			return 0, err
		}
		*steps = append(*steps, st)
		if st.Pass {
			low = mid
		} else {
			high = mid
		}
	}
	if low < 0 {
		return rateLadder[0] / 2, nil
	}
	return rateLadder[low], nil
}
