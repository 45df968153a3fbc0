package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nocsched/internal/ctg"
	"nocsched/internal/eas"
	"nocsched/internal/energy"
	"nocsched/internal/sched"
	"nocsched/internal/serve"
	"nocsched/internal/telemetry"
	"nocsched/internal/tgff"
)

// serve-mixed traffic shape.
const (
	serveTasks = 60
	// hotSize digests carry most of the traffic; they are solved once
	// while setting up, so every later request for them is a cache hit.
	hotSize = 24
	// freshEvery: one request in every block of freshEvery carries a
	// digest never seen before, at a seeded position in the block.
	freshEvery = 8
	// cacheSlack is the cache room beyond the hot set. Fresh entries
	// fill it and are then evicted oldest first, while the at most ~5
	// fresh insertions between two requests for one hot digest can
	// never push that digest out.
	cacheSlack = 12
	// sloMS is the latency limit on req_ms_tail that defines
	// max_rps_at_slo.
	sloMS = 25.0
	// lateLimitMS bounds loadgen lateness at the nominal rate; a run
	// whose sender ran later than this measured the load generator,
	// not the server, and is refused.
	lateLimitMS = 50.0
)

// serveReq is one prepared request.
type serveReq struct {
	body   []byte
	g      *ctg.Graph
	digest string
	hot    int // index into the hot set, -1 for a fresh digest
}

// serveSetup is everything a serve-mixed run needs before its first
// timed request.
type serveSetup struct {
	hot []*serveReq
	// stream is the first n requests of gen's stream, made while
	// setting up; gen makes the rest.
	stream []*serveReq
	gen    *streamGen
	acg    *energy.ACG
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	conns  int
	// primed[i] is hot digest i's first answer, with its cache field
	// rewritten to "hit": every later response must equal it byte for
	// byte.
	primed [][]byte
	served sync.WaitGroup
}

func newServeReq(g *ctg.Graph, hot int) (*serveReq, error) {
	body, err := json.Marshal(serve.Request{Graph: g})
	if err != nil {
		return nil, err
	}
	digest, err := serve.WorkloadDigest(serve.AlgoEAS, serve.DefaultPlatform(), g)
	if err != nil {
		return nil, err
	}
	return &serveReq{body: body, g: g, digest: digest, hot: hot}, nil
}

func serveGraph(platform *energy.ACG, name string, seed int64, index int) (*ctg.Graph, error) {
	p := tgff.SuiteParams(tgff.CategoryI, index%tgff.SuiteSize, platform.Platform())
	p.Name = name
	p.Seed = seed
	p.NumTasks = serveTasks
	return tgff.Generate(p)
}

// streamGen lays out the request stream: in each block of freshEvery
// one seeded slot is a fresh digest, the others walk a seeded
// permutation of the hot set round robin. The graphs themselves do not
// depend on the seed — the hot set is fixed and block b's fresh graph
// is always the b-th of one fixed sequence — so solve costs and quality
// figures do not move with it; a digest is fresh because the run's
// cache has never seen it.
type streamGen struct {
	acg  *energy.ACG
	hot  []*serveReq
	rng  *rand.Rand
	perm []int
	h, b int
	buf  []*serveReq // generated, not yet handed out
}

func newStreamGen(acg *energy.ACG, hot []*serveReq, seed int64) *streamGen {
	rng := rand.New(rand.NewSource(seed))
	return &streamGen{acg: acg, hot: hot, rng: rng, perm: rng.Perm(len(hot))}
}

// next returns the stream's next n requests.
func (g *streamGen) next(n int) ([]*serveReq, error) {
	for len(g.buf) < n {
		slot := g.rng.Intn(freshEvery)
		for j := 0; j < freshEvery; j++ {
			if j != slot {
				g.buf = append(g.buf, g.hot[g.perm[g.h%len(g.perm)]])
				g.h++
				continue
			}
			gr, err := serveGraph(g.acg, fmt.Sprintf("fresh-%04d", g.b), 1_000_000+int64(g.b), g.b)
			if err != nil {
				return nil, err
			}
			r, err := newServeReq(gr, -1)
			if err != nil {
				return nil, err
			}
			g.buf = append(g.buf, r)
		}
		g.b++
	}
	out := g.buf[:n:n]
	g.buf = g.buf[n:]
	return out, nil
}

// setupServe generates the first n requests of the traffic, starts an
// in-process server on a loopback port, warms it up and primes the hot
// set.
func setupServe(seed int64, n int, col *telemetry.Collector) (*serveSetup, error) {
	conns := clientConns()
	acg, err := buildACG(mesh4, nil, "")
	if err != nil {
		return nil, err
	}
	st := &serveSetup{acg: acg, conns: conns}
	for i := 0; i < hotSize; i++ {
		g, err := serveGraph(acg, fmt.Sprintf("hot-%02d", i), 9_000+int64(i), i)
		if err != nil {
			return nil, err
		}
		r, err := newServeReq(g, i)
		if err != nil {
			return nil, err
		}
		st.hot = append(st.hot, r)
	}
	st.gen = newStreamGen(acg, st.hot, seed)
	if st.stream, err = st.gen.next(n); err != nil {
		return nil, err
	}

	st.srv = serve.New(serve.Options{Workers: conns, CacheEntries: hotSize + cacheSlack, Telemetry: col})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		return nil, err
	}
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	st.url = "http://" + ln.Addr().String() + "/v1/schedule"
	st.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
	if err := st.srv.Warmup(); err != nil {
		st.close()
		return nil, err
	}
	for i, r := range st.hot {
		body, cache, err := st.post(r)
		if err != nil || cache != serve.CacheMiss {
			st.close()
			return nil, fmt.Errorf("priming hot digest %d: cache %q, %v", i, cache, err)
		}
		st.primed = append(st.primed, bytes.Replace(body, []byte(`"cache": "miss"`), []byte(`"cache": "hit"`), 1))
	}
	return st, nil
}

// close stops the HTTP server, the scheduling server and the client,
// and waits for the serving goroutine to end.
func (st *serveSetup) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = st.hs.Shutdown(ctx) // best effort: the process is done with it
	st.served.Wait()
	_ = st.srv.Close()
	st.client.CloseIdleConnections()
}

// post sends one request and returns the 200 body and its cache
// disposition.
func (st *serveSetup) post(r *serveReq) ([]byte, string, error) {
	resp, err := st.client.Post(st.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Nocsched-Cache"), nil
}

// sent is one open-loop request's record.
type sent struct {
	req      *serveReq
	latMS    float64 // from when it was due to when the response was read
	lateMS   float64 // from when it was due to when it was sent
	backlog  int
	done     time.Duration // from the phase's start to the response read
	ok       bool
	cache    string
	body     []byte // kept for fresh digests, checked after the run
	failure  string
	httpSpan int64
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	rate float64
	reqs []sent
	wall time.Duration
}

// openLoop sends reqs at a fixed rate from st.conns client goroutines.
// Request i is due at start + i/rate; a client that falls behind sends
// at once, and the wait counts in the request's latency.
func (st *serveSetup) openLoop(reqs []*serveReq, rate float64, rec *recorder, reqBase int64) *phase {
	ph := &phase{rate: rate, reqs: make([]sent, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for c := 0; c < st.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * 1e9))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				out := &ph.reqs[i]
				out.req = reqs[i]
				out.lateMS = ms(now.Sub(due))
				out.backlog = max(0, int(now.Sub(start).Seconds()*rate)-i)
				id, end := rec.begin("http.request", 0, reqBase+int64(i))
				body, cache, err := st.post(reqs[i])
				end()
				out.httpSpan = id
				out.latMS = ms(time.Since(due))
				out.done = time.Since(start)
				out.cache = cache
				st.judge(out, body, err)
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// judge checks one response as it arrives: a hot digest must hit and
// equal its primed answer byte for byte; a fresh digest must miss, and
// its body is kept for the schedule checks after the run.
func (st *serveSetup) judge(out *sent, body []byte, err error) {
	switch {
	case err != nil:
		out.failure = err.Error()
	case out.req.hot >= 0 && out.cache != serve.CacheHit:
		out.failure = fmt.Sprintf("hot digest answered %q, want hit", out.cache)
	case out.req.hot >= 0 && !bytes.Equal(body, st.primed[out.req.hot]):
		out.failure = "hot response differs from the digest's first answer"
	case out.req.hot < 0 && out.cache != serve.CacheMiss:
		out.failure = fmt.Sprintf("fresh digest answered %q, want miss", out.cache)
	default:
		out.ok = true
		if out.req.hot < 0 {
			out.body = body
		}
	}
	if !out.ok {
		out.latMS = math.Inf(1)
	}
}

// answer is a decoded, independently checked response.
type answer struct {
	resp serve.Response
	s    *sched.Schedule
}

// checkAnswer decodes a response body and checks it against the
// request: the digest is the request's, the schedule re-loads against
// the request's graph, passes the conformance oracle, and is
// bit-identical (sched.Diff) to an in-process eas.Schedule of the same
// graph.
func (st *serveSetup) checkAnswer(r *serveReq, body []byte, rec *recorder, req int64) (*answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a.resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if a.resp.Digest != r.digest {
		return nil, fmt.Errorf("digest %s, want %s", a.resp.Digest, r.digest)
	}
	s, err := sched.ReadJSON(bytes.NewReader(a.resp.Schedule), r.g, st.acg)
	if err != nil {
		return nil, fmt.Errorf("reload schedule: %w", err)
	}
	ref, err := eas.Schedule(r.g, st.acg, eas.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	if msg := checkSchedule(s, ref.Schedule, rec, req); msg != "" {
		return nil, errors.New(msg)
	}
	if a.resp.Energy.TotalNJ != s.TotalEnergy() || a.resp.DeadlineMisses != len(s.DeadlineMisses()) {
		return nil, errors.New("response energy or miss count disagrees with its schedule")
	}
	a.s = s
	return &a, nil
}
