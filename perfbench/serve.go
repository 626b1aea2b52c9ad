package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/engine/journal"
	"repro/vos"
)

// serveParams sizes one serving workload. The offered rate is well
// below the closed-loop throughput measured on a 2-CPU host; a request
// the generator cannot start within limitMs of the fixed-rate phase's end
// is recorded as missed instead of sent.
type serveParams struct {
	name    string
	shape   sweepShape
	offered float64 // requests/s in the latency phase
	limitMs float64
	// warmSeeds > 0 draws every request from that many seeds simulated
	// during set-up; 0 gives every request a fresh seed.
	warmSeeds int
	// journaled gives every node a write-ahead journal.
	journaled bool
}

var (
	warmParams = serveParams{
		name:      "serve_warm",
		shape:     sweepShape{arches: []string{"RCA", "BKA"}, widths: []int{8, 16}, patterns: 2000},
		offered:   15,
		limitMs:   300,
		warmSeeds: 4,
	}
	churnParams = serveParams{
		name:      "serve_churn",
		shape:     sweepShape{arches: []string{"RCA", "BKA"}, widths: []int{8}, patterns: 256},
		offered:   10,
		limitMs:   500,
		journaled: true,
	}
)

const (
	nodes = 3
	// conns is the generator's connection count: one process, at most
	// two requests in flight, on a 2-CPU host.
	conns = 2
	// fixedShare of the run is the fixed-rate phase: a fixed amount of
	// work for the memory metrics, and the generator's lag. The rest is
	// the closed loop that gives latency and throughput.
	fixedShare = 0.3
)

func serveWarm(ctx context.Context, cfg runConfig) (*outcome, error) {
	return serve(ctx, cfg, warmParams)
}

func serveChurn(ctx context.Context, cfg runConfig) (*outcome, error) {
	return serve(ctx, cfg, churnParams)
}

// fleet is a booted cluster plus the generator's clients: clients[c][n]
// speaks to node n over connection c.
type fleet struct {
	lc      *cluster.LocalCluster
	clients [conns][nodes]*vos.Remote
	dir     string
}

func (f *fleet) close() {
	for c := range f.clients {
		for _, r := range f.clients[c] {
			if r != nil {
				r.Close()
			}
		}
	}
	f.lc.Close()
}

// nodeStats sums the nodes' engine counters.
type nodeStats struct {
	execs                     [nodes]uint64
	peerHits, peerMisses      uint64
	peerErrors, peerPushDrops uint64
}

func (f *fleet) stats() nodeStats {
	var s nodeStats
	for i, m := range f.lc.Members() {
		eng := m.Node.Engine()
		st := eng.CacheStats()
		s.execs[i] = eng.Executions()
		s.peerHits += st.PeerHits
		s.peerMisses += st.PeerMisses
		s.peerErrors += st.PeerErrors
		s.peerPushDrops += st.PeerPushDrops
	}
	return s
}

func (s nodeStats) totalExecs() uint64 {
	t := uint64(0)
	for _, e := range s.execs {
		t += e
	}
	return t
}

func bootFleet(ctx context.Context, p serveParams, dir string, tr *tracer, warm []uint64) (*fleet, error) {
	opts := cluster.LocalOptions{}
	if p.journaled {
		opts.JournalRoot = filepath.Join(dir, "journal")
	}
	if tr != nil {
		opts.PerNode = func(_ int, no *cluster.NodeOptions) {
			no.Middleware = serverTiming(tr)
			no.Transport = &timedTransport{base: http.DefaultTransport.(*http.Transport).Clone(),
				tr: tr, layer: "cluster", prefix: "peer.", kind: peerKind}
		}
	}
	lc, err := cluster.StartLocal(nodes, opts)
	if err != nil {
		return nil, err
	}
	f := &fleet{lc: lc, dir: dir}
	for _, m := range lc.Members() {
		// A journaled node replays its journal before serving.
		if err := m.Node.Engine().WaitReady(ctx); err != nil {
			f.close()
			return nil, err
		}
	}
	for c := range f.clients {
		var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		if tr != nil {
			rt = &timedTransport{base: rt, tr: tr, layer: "vos", prefix: "cli.", kind: route}
		}
		hc := &http.Client{Transport: rt}
		for n, u := range lc.URLs() {
			r, err := vos.NewRemote(u, vos.RemoteOptions{HTTPClient: hc})
			if err != nil {
				f.close()
				return nil, err
			}
			f.clients[c][n] = r
		}
	}
	// Warm every seed of the set through every node, so the timed
	// requests find each node's memory tier filled and no request pays
	// a first-touch peer fetch.
	for _, seed := range warm {
		for n := 0; n < nodes; n++ {
			if _, err := f.clients[0][n].Run(ctx, p.shape.spec(seed)); err != nil {
				f.close()
				return nil, err
			}
		}
	}
	if len(warm) == 0 {
		// One small sweep per node finishes lazy start-up work.
		small := p.shape
		small.patterns = 64
		for n := 0; n < nodes; n++ {
			if _, err := f.clients[0][n].Run(ctx, small.spec(uint64(n+1))); err != nil {
				f.close()
				return nil, err
			}
		}
	}
	return f, nil
}

// serveRun is the state one serving run shares between its phases.
type serveRun struct {
	p     serveParams
	f     *fleet
	refs  map[uint64]*vos.Result // serve_warm: reference per seed
	seeds *seedStream
	warm  []uint64

	mu sync.Mutex
	// got holds serve_churn results until they are checked against
	// vos.Local after timing.
	got map[uint64]*vos.Result
	o   *outcome
}

// phase runs one open-loop phase at rate for dur and checks each
// result. Requests not started within limit of the window's end are
// recorded as missed, not sent.
func (s *serveRun) phase(ctx context.Context, rate float64, dur time.Duration) []opRecord {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = s.nextSeed()
	}
	start := time.Now().Add(20 * time.Millisecond)
	stopBy := start.Add(dur).Add(time.Duration(s.p.limitMs * float64(time.Millisecond)))
	recs := openLoop(ctx, wallClock{}, start, rate, n, conns, stopBy, func(ctx context.Context, c, i int) error {
		return s.op(ctx, s.f.clients[c][i%nodes], seeds[i])
	})
	for _, r := range recs {
		if !r.Missed {
			s.o.attempted++
			if r.Err != nil {
				s.o.failed++
			}
		}
	}
	return recs
}

// nextSeed draws the next request's seed: from the warm set on
// serve_warm, fresh on serve_churn. Safe for concurrent use.
func (s *serveRun) nextSeed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.warm) > 0 {
		return s.warm[int(s.seeds.next()%uint64(len(s.warm)))]
	}
	return s.seeds.next()
}

// op runs one sweep and checks it against vos.Local: inline for cached
// seeds, after timing for fresh ones.
func (s *serveRun) op(ctx context.Context, c *vos.Remote, seed uint64) error {
	res, err := c.Run(ctx, s.p.shape.spec(seed))
	if err != nil {
		return err
	}
	if ref := s.refs[seed]; ref != nil {
		if !sameResult(res, ref) {
			return fmt.Errorf("seed %d: result differs from vos.Local", seed)
		}
		return nil
	}
	s.mu.Lock()
	s.got[seed] = res
	s.mu.Unlock()
	return nil
}

// checkFresh compares every stored fresh-seed result with a vos.Local
// run of the same spec, after timing.
func (s *serveRun) checkFresh(ctx context.Context) error {
	if len(s.got) == 0 {
		return nil
	}
	l, err := vos.NewLocal(vos.LocalOptions{})
	if err != nil {
		return err
	}
	defer l.Close()
	for seed, got := range s.got {
		ref, err := l.Run(ctx, s.p.shape.spec(seed))
		if err != nil {
			return err
		}
		if !sameResult(got, ref) {
			s.o.failed++
			s.o.note("seed %d: cluster result differs from vos.Local", seed)
		}
	}
	return nil
}

func serve(ctx context.Context, cfg runConfig, p serveParams) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	s := &serveRun{p: p, seeds: &seedStream{state: cfg.seed}, got: map[uint64]*vos.Result{}, o: o}
	stateRoot := filepath.Join(cfg.out, fmt.Sprintf("state-%d", os.Getpid()))
	defer os.RemoveAll(stateRoot)
	if p.warmSeeds > 0 {
		l, err := vos.NewLocal(vos.LocalOptions{})
		if err != nil {
			return nil, err
		}
		s.refs = map[uint64]*vos.Result{}
		for i := 0; i < p.warmSeeds; i++ {
			seed := s.seeds.next()
			ref, err := l.Run(ctx, p.shape.spec(seed))
			if err != nil {
				l.Close()
				return nil, err
			}
			s.warm = append(s.warm, seed)
			s.refs[seed] = ref
		}
		l.Close()
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	f, setupS, err := repeatSetup(5, func(i int) (*fleet, func(), error) {
		f, err := bootFleet(ctx, p, filepath.Join(stateRoot, fmt.Sprintf("boot%d", i)), tr, s.warm)
		if err != nil {
			return nil, nil, err
		}
		return f, f.close, nil
	})
	if err != nil {
		return nil, err
	}
	s.f = f
	closed := false
	defer func() {
		if !closed {
			f.close()
		}
	}()
	o.metrics["setup_s"] = setupS
	o.note("state filesystem %s; %d nodes, %d connections", fsName(cfg.out), nodes, conns)

	total := time.Duration(cfg.seconds * float64(time.Second))
	fixedDur := time.Duration(fixedShare * float64(total))
	st0 := f.stats()
	alloc0 := heapAllocBytes()
	live0 := liveHeapBytes()
	recs := s.phase(ctx, p.offered, fixedDur)
	load := analyze(recs)
	allocMB := float64(heapAllocBytes()-alloc0) / (1 << 20) / float64(len(recs))
	rss := peakRSSMB()
	checkExecs := func(phase string) {
		if d := f.stats().totalExecs() - st0.totalExecs(); p.warmSeeds > 0 && d != 0 {
			o.fail("serve_warm executed %d points by the end of the %s; every request must be served from cache", d, phase)
		}
	}
	checkExecs("fixed-rate phase")
	o.note("fixed-rate phase: %d requests at %.1f/s open loop, latency from the due time p50 %.2f ms, p%d %.2f ms, lag p90 %.2f ms, backlog max %d, failed %d",
		len(recs), p.offered, load.Latency.P50, load.Latency.TailPct, load.Latency.Tail, load.LagP90Ms, load.BacklogMax, load.Failed)

	if cfg.trace {
		o.metrics["load.lag_p90_ms"] = load.LagP90Ms
		o.metrics["load.backlog_max"] = float64(load.BacklogMax)
		if err := s.traced(ctx, cfg, tr, total-fixedDur, live0); err != nil {
			return nil, err
		}
		f.close()
		closed = true
		if p.journaled {
			if err := journalMetrics(f, o); err != nil {
				return nil, err
			}
			if err := journalAppend(filepath.Join(stateRoot, "jbench"), o); err != nil {
				return nil, err
			}
		}
		if err := s.checkFresh(ctx); err != nil {
			return nil, err
		}
		return o, nil
	}

	// The rest of the run is a closed loop: both connections keep a
	// request in flight, and requests ending after a warm-up second give
	// latency and throughput. On a 2-CPU host these repeated within a
	// tenth from run to run, where the fixed-rate phase's latency moved
	// by a fifth between sets of runs of the same code.
	dur := total - fixedDur
	rate, lat, sent, failed := closedLoop(ctx, wallClock{}, conns, time.Second, dur, func(ctx context.Context, c, i int) error {
		err := s.op(ctx, s.f.clients[c][i%nodes], s.nextSeed())
		if err != nil {
			s.mu.Lock()
			o.note("closed-loop request: %v", err)
			s.mu.Unlock()
		}
		return err
	})
	o.attempted += sent
	o.failed += failed
	checkExecs("closed loop")
	cl := summarize(lat)
	o.note("closed loop: %d requests over %d connections for %v; %d counted after a 1 s warm-up, tail p%d",
		sent, conns, dur.Round(time.Millisecond), cl.N, cl.TailPct)
	o.metrics["latency_p50_ms"] = cl.P50
	o.metrics["latency_tail_ms"] = cl.Tail
	o.metrics["throughput_per_s"] = rate
	o.metrics["peak_rss_mb"] = rss
	o.metrics["alloc_mb_per_op"] = allocMB
	o.note("peak_rss_mb and alloc_mb_per_op cover set-up and the fixed-rate phase only")
	if err := s.checkFresh(ctx); err != nil {
		return nil, err
	}
	o.note("fail_frac %d/%d", o.failed, o.attempted)
	return o, nil
}

// traced issues requests one at a time, alternating traced and
// untraced, and reads the httpapi, cluster and engine layers off the
// instrumented fleet.
func (s *serveRun) traced(ctx context.Context, cfg runConfig, tr *tracer, dur time.Duration, live0 uint64) error {
	o, f := s.o, s.f
	var traced, plain []float64
	var hits, total float64
	var execDelta [nodes]uint64
	var peerHits, peerLookups, peerErrs, drops uint64
	deadline := time.Now().Add(dur / 2)
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		seed := s.seeds.next()
		if len(s.warm) > 0 {
			seed = s.warm[i%len(s.warm)]
		}
		c := f.clients[0][i%nodes]
		o.attempted++
		if i%2 == 1 {
			t0 := time.Now()
			if err := s.op(ctx, c, seed); err != nil {
				o.failed++
				o.note("request: %v", err)
				continue
			}
			plain = append(plain, ms(time.Since(t0)))
			continue
		}
		before := f.stats()
		t0 := time.Now()
		res, err := tracedLocalOp(ctx, tr, c, s.p.shape.spec(seed))
		lat := ms(time.Since(t0))
		if err == nil {
			if ref := s.refs[seed]; ref != nil && !sameResult(res, ref) {
				err = fmt.Errorf("seed %d: result differs from vos.Local", seed)
			} else if ref == nil {
				s.got[seed] = res
			}
		}
		if err != nil {
			o.failed++
			o.note("traced request: %v", err)
			continue
		}
		after := f.stats()
		traced = append(traced, lat)
		hits += float64(res.Progress.CacheHits)
		total += float64(res.Progress.TotalPoints)
		for n := range execDelta {
			execDelta[n] += after.execs[n] - before.execs[n]
		}
		peerHits += after.peerHits - before.peerHits
		peerLookups += after.peerHits - before.peerHits + after.peerMisses - before.peerMisses
		peerErrs += after.peerErrors - before.peerErrors
		drops += after.peerPushDrops - before.peerPushDrops
	}
	ops := float64(len(traced))
	o.metrics["engine.retained_kb_per_op"] = (float64(liveHeapBytes()) - float64(live0)) / 1024 / float64(o.attempted)
	o.metrics["trace.overhead_frac"] = median(traced)/median(plain) - 1
	o.metrics["engine.cache_hit_ratio"] = hits / total
	var execSum, execMax uint64
	for _, e := range execDelta {
		execSum += e
		if e > execMax {
			execMax = e
		}
	}
	o.metrics["engine.executions_per_op"] = float64(execSum) / ops
	if execSum > 0 {
		o.metrics["cluster.exec_balance"] = float64(execMax) / (float64(execSum) / nodes)
	}
	if peerLookups > 0 {
		o.metrics["cluster.peer_hit_ratio"] = float64(peerHits) / float64(peerLookups)
	}
	o.metrics["cluster.peer_errors"] = float64(peerErrs) + tr.count("peer.errors")
	o.metrics["cluster.push_drops"] = float64(drops)

	o.metrics["httpapi.requests_per_op"] = tr.prefixSum("srv.req.") / ops
	for metric, rt := range map[string]string{
		"httpapi.post_sweeps_ms":     "POST /v1/sweeps",
		"httpapi.events_ms":          "GET /v1/sweeps/{id}/events",
		"httpapi.get_results_ms":     "GET /v1/sweeps/{id}/results",
		"httpapi.cache_entry_get_ms": "GET /v1/cache/entries/{key}",
		"httpapi.cache_entry_put_ms": "PUT /v1/cache/entries/{key}",
	} {
		o.metrics[metric] = meanMs(tr.count("srv.ns."+rt), tr.count("srv.req."+rt))
	}
	o.metrics["httpapi.resp_kb_per_op"] = tr.count("srv.bytes") / 1024 / ops
	o.metrics["cluster.peer_rpcs_per_op"] = tr.prefixSum("peer.rpcs.") / ops
	for _, k := range []string{"subsweep", "cache_get", "cache_put"} {
		o.metrics["cluster.peer_rpcs_per_op."+k] = tr.count("peer.rpcs."+k) / ops
	}
	o.metrics["cluster.peer_rpc_ms"] = meanMs(tr.prefixSum("peer.ns."), tr.prefixSum("peer.rpcs."))
	o.metrics["cluster.subsweeps_per_op"] = tr.count("peer.submits") / ops
	o.metrics["vos.results_kb"] = tr.count("cli.bytes.GET /v1/sweeps/{id}/results") / 1024 / ops
	o.note("server requests per operation, by route:\n%s", tr.routeBreakdown("srv.req.", int(ops)))
	o.note("peer RPCs per operation, by kind:\n%s", tr.routeBreakdown("peer.rpcs.", int(ops)))
	finishSpans(cfg, s.p.name, tr, o)

	// Engine replay: the same requests on a bare engine whose cache
	// backend is timed.
	if len(s.warm) > 0 {
		c := mustCache("")
		seed := s.warm[0]
		if err := engineReplay(ctx, &timedBackend{inner: c}, []engine.Request{s.p.shape.request(seed)}, o, "mem"); err != nil {
			return err
		}
		warm := []engine.Request{s.p.shape.request(seed), s.p.shape.request(seed), s.p.shape.request(seed)}
		return engineReplay(ctx, &timedBackend{inner: c}, warm, o, "mem")
	}
	dir := filepath.Join(f.dir, "replay-cache")
	reqs := []engine.Request{s.p.shape.request(s.seeds.next()), s.p.shape.request(s.seeds.next()), s.p.shape.request(s.seeds.next())}
	c1, err := engine.NewCache(dir)
	if err != nil {
		return err
	}
	if err := engineReplay(ctx, &timedBackend{inner: c1}, reqs, o, "disk"); err != nil {
		return err
	}
	// A second cache on the same directory starts with an empty memory
	// tier, so its Gets are disk hits.
	c2, err := engine.NewCache(dir)
	if err != nil {
		return err
	}
	return engineReplay(ctx, &timedBackend{inner: c2}, reqs, o, "disk")
}

// journalMetrics reopens every node's journal after the fleet closed:
// records by type and bytes per operation, and the replay time.
func journalMetrics(f *fleet, o *outcome) error {
	byType := map[string]float64{}
	var records, bytes float64
	var replay time.Duration
	for n := 0; n < nodes; n++ {
		t0 := time.Now()
		j, recs, err := journal.Open(filepath.Join(f.dir, "journal", fmt.Sprintf("node%d", n)), journal.Options{})
		replay += time.Since(t0)
		if err != nil {
			return fmt.Errorf("reopen journal of node %d: %w", n, err)
		}
		for _, r := range recs {
			var rec struct {
				T string `json:"t"`
			}
			if err := json.Unmarshal(r, &rec); err != nil {
				j.Close()
				return fmt.Errorf("journal of node %d: %w", n, err)
			}
			byType[rec.T]++
			records++
			bytes += float64(len(r) + 8) // 8-byte frame header
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	ops := float64(o.attempted)
	o.metrics["journal.records_per_op"] = records / ops
	for _, t := range []string{"sweep.accept", "sweep.point", "sweep.end"} {
		o.metrics["journal.records_per_op."+strings.ReplaceAll(t, ".", "_")] = byType[t] / ops
	}
	o.metrics["journal.bytes_per_op"] = bytes / 1024 / ops
	o.metrics["journal.replay_ms"] = ms(replay) / nodes
	o.note("journal records by type over %d operations: %v", o.attempted, byType)
	return nil
}

// journalAppend times Journal.Append on the workload's filesystem,
// with and without fsync.
func journalAppend(dir string, o *outcome) error {
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	payload := []byte(`{"t":"sweep.point","id":"s-000001","key":"` + fmt.Sprintf("%064d", 0) + `"}`)
	for _, c := range []struct {
		name string
		sync bool
		n    int
	}{{"synced", true, 50}, {"unsynced", false, 2000}} {
		t0 := time.Now()
		for i := 0; i < c.n; i++ {
			if err := j.Append(payload, c.sync); err != nil {
				j.Close()
				return err
			}
		}
		o.metrics["journal.append_us."+c.name] = float64(time.Since(t0)) / 1e3 / float64(c.n)
	}
	return j.Close()
}
