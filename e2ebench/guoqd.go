package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/dist"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// mixConfig sizes guoqd-mix.
type mixConfig struct {
	hot       int           // resubmitted circuits, published during warm-up
	bases     int           // distinct circuit bodies behind every hot and fresh circuit
	gates     int           // gates per base circuit
	warmFresh int           // fresh circuits published during warm-up, at least
	warmTime  time.Duration // warm-up length, at least
	batch     int           // requests per wall_s batch
}

func mixConfigFor(tiny bool) mixConfig {
	if tiny {
		return mixConfig{hot: 8, bases: 4, gates: 40, warmFresh: 16, batch: 20}
	}
	// warmFresh overruns the server's default 4096-entry result cache, so
	// the measured phase sees eviction and spill from its first request,
	// and warmTime outlasts sessionTTL, so the number of live sessions has
	// settled too.
	return mixConfig{hot: 256, bases: 64, gates: 400, warmFresh: 5000, warmTime: sessionTTL + time.Second, batch: 1000}
}

const (
	mixClients = 2
	// mixHotFrac is the share of client iterations that resubmit a hot
	// circuit; the rest submit and publish a fresh one.
	mixHotFrac   = 0.6
	mixTarget    = "ibm-eagle"
	mixObjective = "2q"
	mixEpsilon   = 1e-8
	// cancelPairs is how many adjacent cx·cx pairs each submitted circuit
	// carries on top of its base: the "optimized" form a client publishes
	// is the base, exactly equivalent and 2·cancelPairs two-qubit gates
	// cheaper.
	cancelPairs = 10
	// sessionTTL expires the one-shot exchange session each fresh circuit
	// opens. Under the 30 min default, sessions pile up for the whole run,
	// and each fresh submission pays a sweep over all of them and a larger
	// checkpoint: batch times grew from 0.40 s to 0.60 s within 20 s, so
	// no fixed-length run would reach a steady state.
	sessionTTL = 5 * time.Second
)

// mixInputs are the circuits of one guoqd-mix run. Every submitted
// circuit is base i (with or without its cancelling pairs) followed by one
// rz gate whose angle makes the circuit unique.
type mixInputs struct {
	in, best         []string // QASM bodies of base i, with and without pairs
	inCost, bestCost []float64
}

// mixQubits is the width of every guoqd-mix circuit.
const mixQubits = 8

func newMixInputs(cfg mixConfig, seed int64) (*mixInputs, error) {
	gs, err := gateset.ByName(mixTarget)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	m := &mixInputs{}
	for i := 0; i < cfg.bases; i++ {
		b := circuit.Random(mixQubits, cfg.gates-2*cancelPairs, gs.Gates, rng)
		in := b.Clone()
		for k := 0; k < cancelPairs; k++ {
			at := rng.Intn(len(in.Gates) + 1)
			q := rng.Perm(mixQubits)
			pair := []gate.Gate{gate.NewCX(q[0], q[1]), gate.NewCX(q[0], q[1])}
			in.Gates = append(in.Gates[:at], append(pair, in.Gates[at:]...)...)
		}
		m.in = append(m.in, in.WriteQASM())
		m.best = append(m.best, b.WriteQASM())
		m.inCost = append(m.inCost, float64(in.TwoQubitCount()))
		m.bestCost = append(m.bestCost, float64(b.TwoQubitCount()))
	}
	return m, nil
}

// circuitFor returns submitted circuit id (negative ids are the hot set,
// non-negative ones the fresh stream): its input and optimized QASM and
// their costs.
func (m *mixInputs) circuitFor(id int) (in, best string, inCost, bestCost float64) {
	i := id % len(m.in)
	if i < 0 {
		i += len(m.in)
	}
	tag := fmt.Sprintf("rz(%.6f) q[%d];\n", 1e-4*float64(id+1), (id%mixQubits+mixQubits)%mixQubits)
	return m.in[i] + tag, m.best[i] + tag, m.inCost[i], m.bestCost[i]
}

// guoqdServer is one in-process guoqd on loopback.
type guoqdServer struct {
	srv     *dist.Server
	dir     string
	url     string
	http    *http.Server
	served  chan error
	traffic *countingListener // nil untraced
	handler *timedHandler     // nil untraced
}

func startGuoqd(dir string, traced bool) (*guoqdServer, error) {
	srv, err := dist.OpenServer(dist.ServerOptions{DataDir: dir, SessionTTL: sessionTTL})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	g := &guoqdServer{srv: srv, dir: dir, url: "http://" + l.Addr().String(), served: make(chan error, 1)}
	h := srv.Handler()
	if traced {
		g.traffic = &countingListener{Listener: l}
		g.handler = &timedHandler{next: h, spans: map[string]*span{"/v1/submit": {}, "/v1/exchange": {}}}
		l, h = g.traffic, g.handler
	}
	g.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { g.served <- g.http.Serve(l) }()
	return g, nil
}

// stop shuts the HTTP server down, closes guoqd and removes its data.
func (g *guoqdServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := g.http.Shutdown(ctx)
	if serr := <-g.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := g.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(g.dir); err == nil {
		err = rerr
	}
	return err
}

// countingListener counts the bytes every accepted connection carries.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// timedHandler records a span per request around guoqd's handler.
type timedHandler struct {
	next  http.Handler
	spans map[string]*span // fixed key set; read-only after construction
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := h.spans[r.URL.Path]
	if s == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	s.end(start, true)
}

// request kinds of the closed loop.
const (
	kindHot = iota
	kindFresh
	kindExchange
)

type sample struct {
	done, lat time.Duration // completion since the phase start; round trip
	kind      uint8
}

// mixClient is one closed-loop client.
type mixClient struct {
	url     string
	http    *http.Client
	in      *mixInputs
	samples []sample
	// cost held after each interaction, and at the submit reply.
	inCost, outCost, ttqCost float64
	failed                   int
	errs                     []string
	payloads                 []string // traced: QASM payloads sent, for replay
	keepPayloads             int
}

func (c *mixClient) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// post sends one JSON request and decodes the reply; a non-2xx reply is
// an error.
func (c *mixClient) post(path string, req, resp any) (time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	r, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(start), err
	}
	data, err := io.ReadAll(r.Body)
	r.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if r.StatusCode/100 != 2 {
		return lat, fmt.Errorf("%s: HTTP %d: %s", path, r.StatusCode, strings.TrimSpace(string(data)))
	}
	return lat, json.Unmarshal(data, resp)
}

func (c *mixClient) keep(qasm string) {
	if len(c.payloads) < c.keepPayloads {
		c.payloads = append(c.payloads, qasm)
	}
}

// hot resubmits a circuit whose optimized form was published in warm-up:
// the reply must be a cache hit carrying exactly that form.
func (c *mixClient) hot(id int, t0 time.Time) {
	in, best, inCost, bestCost := c.in.circuitFor(id)
	c.keep(in)
	var resp dist.SubmitResponse
	lat, err := c.post("/v1/submit", dist.SubmitRequest{QASM: in, Target: mixTarget, Objective: mixObjective, Epsilon: mixEpsilon}, &resp)
	c.samples = append(c.samples, sample{done: time.Since(t0), lat: lat, kind: kindHot})
	c.inCost += inCost
	switch {
	case err != nil:
		c.fail("hot submit %d: %v", id, err)
		c.outCost += inCost
		c.ttqCost += inCost
	case !resp.Cached:
		c.fail("hot submit %d: cache miss for a published result", id)
		c.outCost += inCost
		c.ttqCost += inCost
	case resp.Best.QASM != best:
		c.fail("hot submit %d: cache hit differs from the published best", id)
		c.outCost += resp.Best.Cost
		c.ttqCost += resp.Best.Cost
	default:
		c.outCost += bestCost
		c.ttqCost += bestCost
	}
}

// fresh submits a new circuit (a miss) and publishes its optimized form.
func (c *mixClient) fresh(id int, t0 time.Time) {
	in, best, inCost, bestCost := c.in.circuitFor(id)
	c.keep(in)
	c.keep(best)
	var resp dist.SubmitResponse
	lat, err := c.post("/v1/submit", dist.SubmitRequest{QASM: in, Target: mixTarget, Objective: mixObjective, Epsilon: mixEpsilon}, &resp)
	c.samples = append(c.samples, sample{done: time.Since(t0), lat: lat, kind: kindFresh})
	c.inCost += inCost
	c.ttqCost += inCost
	if err != nil {
		c.fail("fresh submit %d: %v", id, err)
		c.outCost += inCost
		return
	}
	if resp.Cached {
		c.fail("fresh submit %d: unexpected cache hit", id)
	}
	var ex dist.ExchangeResponse
	req := dist.ExchangeRequest{Session: resp.Session, Epsilon: mixEpsilon,
		Best: dist.Solution{Envelope: circuit.Envelope{QASM: best}, Cost: bestCost}}
	lat, err = c.post("/v1/exchange", req, &ex)
	c.samples = append(c.samples, sample{done: time.Since(t0), lat: lat, kind: kindExchange})
	if err != nil {
		c.fail("exchange %d: %v", id, err)
		c.outCost += inCost
		return
	}
	if ex.Adopt {
		c.fail("exchange %d: server offered a different best", id)
	}
	c.outCost += bestCost
}

// mixPhase is the outcome of one run of the closed loop.
type mixPhase struct {
	clients []*mixClient
	elapsed time.Duration
	rt      runtimeSample
}

func (p *mixPhase) samples() []sample {
	var all []sample
	for _, c := range p.clients {
		all = append(all, c.samples...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	return all
}

// runMix drives the closed loop with mixClients clients for d. With warm
// it runs the warm-up instead: it publishes every hot circuit, then fresh
// ones until cfg.warmFresh are published and cfg.warmTime has passed.
// Fresh ids are drawn from next; each client keeps its first keep
// payloads.
func runMix(g *guoqdServer, in *mixInputs, cfg mixConfig, seed int64, d time.Duration, next *atomic.Int64, warm bool, keep int) *mixPhase {
	p := &mixPhase{}
	tr := &http.Transport{MaxIdleConnsPerHost: mixClients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	var hotNext atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	before := readRuntime()
	t0 := time.Now()
	end := t0.Add(d)
	for k := 0; k < mixClients; k++ {
		c := &mixClient{url: g.url, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, in: in, keepPayloads: keep}
		p.clients = append(p.clients, c)
		rng := rand.New(rand.NewSource(seed*7919 + int64(k)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if warm {
				for {
					if h := int(hotNext.Add(1)); h <= cfg.hot {
						c.fresh(-h, t0)
						continue
					}
					id := int(next.Add(1))
					if id > cfg.warmFresh && time.Since(t0) >= cfg.warmTime {
						return
					}
					c.fresh(id, t0)
				}
			}
			for time.Now().Before(end) {
				if rng.Float64() < mixHotFrac {
					c.hot(-1-rng.Intn(cfg.hot), t0)
				} else {
					c.fresh(int(next.Add(1)), t0)
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(t0)
	p.rt = readRuntime().sub(before)
	return p
}

// mixRun is one server's life in guoqd-mix: set-up (timed), warm-up, and
// the measured closed loop.
type mixRun struct {
	setup             float64
	attempted, failed int // requests checked, warm-up included
	phase             *mixPhase
	g                 *guoqdServer
	in                *mixInputs
	errs              []string
	// traced only: counter deltas over the measured phase, and the spill
	// files the cache left behind.
	counters   serverCounters
	spillFiles int
}

// serverCounters are the counters a traced guoqd exposes: its /metrics
// series, the bytes its listener carried, per-path handler busy time and
// request counts, and the size of its data directory.
type serverCounters struct {
	scrape   map[string]float64
	bytes    int64
	handler  map[string][2]int64
	dirBytes int64
}

func readCounters(g *guoqdServer) serverCounters {
	return serverCounters{scrape: scrape(g.url), bytes: g.traffic.bytes.Load(), handler: g.handler.snapshot(), dirBytes: dirSize(g.dir)}
}

func (a serverCounters) sub(b serverCounters) serverCounters {
	d := serverCounters{scrape: map[string]float64{}, bytes: a.bytes - b.bytes, handler: map[string][2]int64{}, dirBytes: a.dirBytes - b.dirBytes}
	for k, v := range a.scrape {
		d.scrape[k] = v - b.scrape[k]
	}
	for k, v := range a.handler {
		d.handler[k] = [2]int64{v[0] - b.handler[k][0], v[1] - b.handler[k][1]}
	}
	return d
}

// runMixServer sets a guoqd up (five times; the median is setup_s),
// warms it up, measures the closed loop for d, and stops it.
func runMixServer(o options, cfg mixConfig, d time.Duration, traced bool) (*mixRun, error) {
	r := &mixRun{}
	var setups []float64
	for i := 0; i < 5; i++ {
		if r.g != nil {
			if err := r.g.stop(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(o.workdir, fmt.Sprintf("guoqd-%d-%d", os.Getpid(), i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		start := time.Now()
		in, err := newMixInputs(cfg, o.seed)
		if err != nil {
			return nil, err
		}
		if r.g, err = startGuoqd(dir, traced); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		r.in = in
	}
	r.setup = median(setups)
	var next atomic.Int64
	r.collect(runMix(r.g, r.in, cfg, o.seed, 0, &next, true, 0))
	keep := 0
	var before serverCounters
	if traced {
		keep = 1000
		before = readCounters(r.g)
	}
	r.phase = runMix(r.g, r.in, cfg, o.seed, d, &next, false, keep)
	r.collect(r.phase)
	if traced {
		r.counters = readCounters(r.g).sub(before)
		r.spillFiles = countFiles(filepath.Join(r.g.dir, "cache"))
	}
	if err := r.g.stop(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *mixRun) collect(p *mixPhase) {
	for _, c := range p.clients {
		r.attempted += len(c.samples)
		r.failed += c.failed
		for _, e := range c.errs {
			if len(r.errs) < 10 {
				r.errs = append(r.errs, e)
			}
		}
	}
}

func (h *timedHandler) snapshot() map[string][2]int64 {
	out := map[string][2]int64{}
	for path, s := range h.spans {
		out[path] = [2]int64{s.ns.Load(), s.calls.Load()}
	}
	return out
}

// scrape reads guoqd's /metrics counters.
func scrape(url string) map[string]float64 {
	out := map[string]float64{}
	r, err := http.Get(url + "/metrics")
	if err != nil {
		return out
	}
	defer r.Body.Close()
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if f := strings.Fields(line); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}

func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func countFiles(dir string) int {
	n := 0
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return nil
	})
	return n
}

func latencies(ss []sample, kinds ...uint8) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, s.lat)
			}
		}
	}
	return out
}

func guoqdMix(o options) (*report, error) {
	cfg := mixConfigFor(o.tiny)
	rep := newReport()
	d := o.seconds
	if o.trace {
		d /= 2
	}
	base, err := runMixServer(o, cfg, d, false)
	if err != nil {
		return nil, err
	}
	ss := base.phase.samples()
	requests := len(ss)
	rep.attempted, rep.failed, rep.errs = base.attempted, base.failed, base.errs
	var inCost, outCost, ttq float64
	for _, c := range base.phase.clients {
		inCost += c.inCost
		outCost += c.outCost
		ttq += c.ttqCost
	}
	var batches []float64
	for i := cfg.batch; i <= len(ss); i += cfg.batch {
		prev := time.Duration(0)
		if i > cfg.batch {
			prev = ss[i-cfg.batch-1].done
		}
		batches = append(batches, (ss[i-1].done - prev).Seconds())
	}
	iterUS := frac(float64(base.phase.elapsed.Microseconds()), float64(requests))
	submit, exchange := latencies(ss, kindHot, kindFresh), latencies(ss, kindExchange)
	rep.note("ops_per_s %.1f over %d requests in %.2f s (%d wall_s batches of %d)",
		frac(float64(requests), base.phase.elapsed.Seconds()), requests, base.phase.elapsed.Seconds(), len(batches), cfg.batch)
	worst := 0.0
	for _, b := range batches {
		worst = max(worst, b)
	}
	rep.note("batch walls: median %.3f s, max %.3f s", median(batches), worst)
	rep.note("submit_p50_ms %.4f submit_p99_ms %.4f (n=%d)", ms(quantile(submit, 0.5)), ms(quantile(submit, 0.99)), len(submit))
	rep.note("exchange_p50_ms %.4f exchange_p99_ms %.4f (n=%d)", ms(quantile(exchange, 0.5)), ms(quantile(exchange, 0.99)), len(exchange))
	if !o.trace {
		if len(batches) == 0 {
			return nil, fmt.Errorf("only %d requests, fewer than one batch of %d", requests, cfg.batch)
		}
		m := rep.metrics
		m.add("setup_s", base.setup, "s")
		m.add("wall_s", median(batches), "s")
		m.add("iter_us", iterUS, "us")
		m.add("cost_ratio", frac(outCost, inCost), "ratio")
		m.add("ttq_cost_ratio", frac(ttq, inCost), "ratio")
		m.add("alloc_kb_per_iter", frac(base.phase.rt.allocBytes/1024, float64(requests)), "KB")
		return rep, nil
	}

	tr, err := runMixServer(o, cfg, d, true)
	if err != nil {
		return nil, err
	}
	tss := tr.phase.samples()
	rep.attempted += tr.attempted
	rep.failed += tr.failed
	rep.errs = append(rep.errs, tr.errs...)
	m := rep.metrics
	tc := tr.counters
	tIterUS := frac(float64(tr.phase.elapsed.Microseconds()), float64(len(tss)))
	m.add("trace.overhead_frac", frac(tIterUS, iterUS)-1, "ratio")
	sub, ex := tc.handler["/v1/submit"], tc.handler["/v1/exchange"]
	m.add("dist.handler_ms_submit", frac(float64(sub[0]), float64(sub[1]))/1e6, "ms")
	m.add("dist.handler_ms_exchange", frac(float64(ex[0]), float64(ex[1]))/1e6, "ms")
	var rtt time.Duration
	for _, s := range tss {
		rtt += s.lat
	}
	m.add("dist.transport_frac", 1-frac(float64(sub[0]+ex[0]), float64(rtt)), "ratio")
	m.add("dist.bytes_per_op", frac(float64(tc.bytes), float64(len(tss))), "B")
	hits, misses := tc.scrape["guoqd_cache_hits_total"], tc.scrape["guoqd_cache_misses_total"]
	m.add("dist.cache_hit_frac", frac(hits, hits+misses), "ratio")
	m.add("store.wal_bytes_per_op", frac(float64(tc.dirBytes), float64(len(tss))), "B")
	m.add("store.spill_files", float64(tr.spillFiles), "count")
	var payloads []string
	for _, c := range tr.phase.clients {
		payloads = append(payloads, c.payloads...)
	}
	start := time.Now()
	for _, p := range payloads {
		c, err := circuit.ParseQASM(p)
		if err != nil {
			return nil, fmt.Errorf("replaying a payload: %w", err)
		}
		_ = c.WriteQASM()
	}
	m.add("circuit.qasm_ms_per_op", frac(ms(time.Since(start)), float64(len(payloads))), "ms")
	m.add("gc.cpu_frac", frac(tr.phase.rt.gcCPU, tr.phase.rt.totalCPU), "ratio")
	m.add("gc.cycles", tr.phase.rt.gcCycles, "count")
	return rep, nil
}
