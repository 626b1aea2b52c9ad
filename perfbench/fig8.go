package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/charz"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/patterns"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/triad"
	"repro/vos"
)

// fig8Shape is the paper's Fig. 8: four adders over their Table III
// triads (172 points) at 20000 patterns.
var fig8Shape = sweepShape{arches: []string{"RCA", "BKA"}, widths: []int{8, 16}, patterns: 20000}

// fig8PinnedSeed and fig8PinnedDigest pin one full Fig. 8 sweep's
// results: a change that alters any bit of them fails the run.
const (
	fig8PinnedSeed   = 2017
	fig8PinnedDigest = "b35689fa7fcdf6fdfdcaaf0dae9ce1d6f7190628fbc3f17fd0b97744b93c646a"
)

// fig8RSSOps is the operation count after which peak RSS is read, so
// a faster program that fits more fresh-seed sweeps into a run (each
// growing the never-evicted memory cache and prepared-operator memo)
// does not read as using more memory.
const fig8RSSOps = 16

func fig8Cold(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	// Set-up boots the engine and runs one small sweep so the lazy
	// initialisation every first sweep pays is done before timing.
	local, setupS, err := repeatSetup(9, func(int) (*vos.Local, func(), error) {
		l, err := vos.NewLocal(vos.LocalOptions{})
		if err != nil {
			return nil, nil, err
		}
		warm := fig8Shape
		warm.patterns = 64
		if _, err := l.Run(ctx, warm.spec(1)); err != nil {
			l.Close()
			return nil, nil, err
		}
		return l, func() { l.Close() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer local.Close()
	o.metrics["setup_s"] = setupS
	seeds := &seedStream{state: cfg.seed}
	if cfg.trace {
		return o, fig8Traced(ctx, cfg, local, seeds, o)
	}

	var lats []float64
	points := 0
	rss := 0.0
	alloc0 := heapAllocBytes()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for o.attempted == 0 || time.Now().Before(deadline) {
		lat, err := fig8Op(ctx, local, seeds.next())
		o.attempted++
		if err != nil {
			o.failed++
			o.note("sweep %d: %v", o.attempted, err)
			continue
		}
		lats = append(lats, lat)
		points += fig8Shape.points()
		if o.attempted == fig8RSSOps {
			rss = peakRSSMB()
		}
	}
	elapsed := time.Since(start).Seconds()
	allocMB := float64(heapAllocBytes()-alloc0) / (1 << 20) / float64(o.attempted)
	if rss == 0 {
		rss = peakRSSMB()
	}
	sum := summarize(lats)
	o.metrics["latency_p50_ms"] = sum.P50
	o.metrics["latency_tail_ms"] = sum.Tail
	o.metrics["throughput_per_s"] = float64(points) / elapsed
	o.metrics["peak_rss_mb"] = rss
	o.metrics["alloc_mb_per_op"] = allocMB
	o.note("throughput_per_s is operating points characterized per second at %d patterns", fig8Shape.patterns)
	o.note("latency tail is p%d of %d sweeps; fail_frac %d/%d", sum.TailPct, sum.N, o.failed, o.attempted)
	o.note("peak_rss_mb read after set-up and %d sweeps", fig8RSSOps)
	checkPinned(ctx, local, o)
	return o, nil
}

// fig8Op runs one fresh-seed sweep and checks it: the Table III
// invariants, and one execution per point (every point must miss).
func fig8Op(ctx context.Context, l *vos.Local, seed uint64) (float64, error) {
	before, err := l.CacheStats(ctx)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	res, err := l.Run(ctx, fig8Shape.spec(seed))
	lat := ms(time.Since(t0))
	if err != nil {
		return 0, err
	}
	after, err := l.CacheStats(ctx)
	if err != nil {
		return 0, err
	}
	if err := checkSweep(res, fig8Shape); err != nil {
		return 0, err
	}
	if d := after.Executions - before.Executions; d != uint64(fig8Shape.points()) {
		return 0, fmt.Errorf("%d executions, want %d", d, fig8Shape.points())
	}
	return lat, nil
}

// checkPinned runs the pinned-seed sweep once, outside timing.
func checkPinned(ctx context.Context, l *vos.Local, o *outcome) {
	res, err := l.Run(ctx, fig8Shape.spec(fig8PinnedSeed))
	if err != nil {
		o.fail("pinned sweep: %v", err)
		return
	}
	d, err := digest(res)
	if err != nil {
		o.fail("pinned sweep digest: %v", err)
		return
	}
	if d != fig8PinnedDigest {
		o.fail("pinned sweep (seed %d) digest %s, want %s", fig8PinnedSeed, d, fig8PinnedDigest)
	}
}

// fig8Traced issues sweeps one at a time, alternating traced and
// untraced, then replays the workload's layers from outside: the engine
// through Engine.Subscribe, charz/sim/metrics through their public
// functions.
func fig8Traced(ctx context.Context, cfg runConfig, local *vos.Local, seeds *seedStream, o *outcome) error {
	tr := newTracer()
	live0 := liveHeapBytes()
	var traced, plain []float64
	var execs, hits, total float64
	deadline := time.Now().Add(time.Duration(0.4 * cfg.seconds * float64(time.Second)))
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		seed := seeds.next()
		o.attempted++
		if i%2 == 1 {
			lat, err := fig8Op(ctx, local, seed)
			if err != nil {
				o.failed++
				o.note("sweep: %v", err)
				continue
			}
			plain = append(plain, lat)
			continue
		}
		before, err := local.CacheStats(ctx)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := tracedLocalOp(ctx, tr, local, fig8Shape.spec(seed))
		lat := ms(time.Since(t0))
		after, err2 := local.CacheStats(ctx)
		if err == nil {
			err = err2
		}
		if err == nil {
			err = checkSweep(res, fig8Shape)
		}
		if err != nil {
			o.failed++
			o.note("traced sweep: %v", err)
			continue
		}
		traced = append(traced, lat)
		execs += float64(after.Executions - before.Executions)
		hits += float64(res.Progress.CacheHits)
		total += float64(res.Progress.TotalPoints)
	}
	ops := float64(o.attempted)
	o.metrics["engine.retained_kb_per_op"] = (float64(liveHeapBytes()) - float64(live0)) / 1024 / ops
	o.metrics["engine.executions_per_op"] = execs / float64(len(traced))
	o.metrics["engine.cache_hit_ratio"] = hits / total
	o.metrics["trace.overhead_frac"] = median(traced)/median(plain) - 1
	finishSpans(cfg, "fig8_cold", tr, o)

	replay := []engine.Request{fig8Shape.request(seeds.next()), fig8Shape.request(seeds.next())}
	if err := engineReplay(ctx, &timedBackend{inner: mustCache("")}, replay, o, "mem"); err != nil {
		return err
	}
	small := fig8Shape
	small.patterns = 256
	ov, err := localOverhead(ctx, local, small, seeds.next())
	if err != nil {
		return err
	}
	o.metrics["vos.local_overhead_ms"] = ov
	if err := charzReplay(seeds.next(), o); err != nil {
		return err
	}
	o.note("retained heap grows per fresh-seed sweep: the memory result cache and engine.preps never evict")
	return nil
}

// tracedLocalOp runs one sweep through the SDK's asynchronous methods,
// one span each, under an op span.
func tracedLocalOp(ctx context.Context, tr *tracer, c vos.Client, spec *vos.Spec) (*vos.Result, error) {
	var id string
	var res *vos.Result
	err := traceOp(tr,
		func() (err error) { id, err = c.Submit(ctx, spec); return err },
		func() error { _, err := c.Wait(ctx, id); return err },
		func() (err error) { res, err = c.Results(ctx, id); return err })
	return res, err
}

// traceOp runs one operation's submit, wait and results calls under an
// op span, one vos span each, stopping at the first error.
func traceOp(tr *tracer, submit, wait, results func() error) error {
	tr.on.Store(true)
	defer tr.on.Store(false)
	end := tr.start(rootLayer, rootName)
	defer end()
	for _, step := range []struct {
		name string
		call func() error
	}{{"vos.submit", submit}, {"vos.wait", wait}, {"vos.results", results}} {
		done := tr.start("vos", step.name)
		err := step.call()
		done()
		if err != nil {
			return err
		}
	}
	return nil
}

// finishSpans attributes the traced run's spans, writes them out and
// reports the per-layer self times.
func finishSpans(cfg runConfig, name string, tr *tracer, o *outcome) {
	ops, self := tr.finish()
	if len(ops) == 0 {
		return
	}
	var wall, sum int64
	for _, sp := range ops {
		wall += sp[0].End - sp[0].Start
	}
	for _, l := range traceLayers {
		o.metrics["trace.self_ms."+l] = float64(self[l]) / 1e6 / float64(len(ops))
		sum += self[l]
	}
	o.metrics["trace.self_sum_frac"] = float64(sum) / float64(wall)
	var durs = map[string][]float64{}
	for _, sp := range ops {
		for _, s := range sp {
			durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	for _, m := range []string{"vos.submit", "vos.wait", "vos.results"} {
		o.metrics[m+"_ms"] = median(durs[m])
	}
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", cfg.out, name, cfg.seed)
	if err := writeSpans(path, ops, self); err != nil {
		o.fail("write spans: %v", err)
		return
	}
	o.note("%d traced operations; spans in %s", len(ops), path)
}

func mustCache(dir string) *engine.Cache {
	c, err := engine.NewCache(dir)
	if err != nil {
		panic(err) // a memory-only cache cannot fail to open
	}
	return c
}

func archByName(name string) (synth.Arch, error) {
	for _, a := range synth.Arches() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown arch %q", name)
}

// charzReplay runs fig8_cold's four operators through charz.Prepare and
// Prepared.RunGroup per super-group, then drives the simulator and the
// accumulators of each directly.
func charzReplay(seed uint64, o *outcome) error {
	var prepNs, groupNs int64
	groups, points := 0, 0
	var sr simReplayStats
	for _, name := range fig8Shape.arches {
		arch, err := archByName(name)
		if err != nil {
			return err
		}
		for _, w := range fig8Shape.widths {
			t0 := time.Now()
			prep, err := charz.Prepare(charz.Config{Arch: arch, Width: w, Patterns: fig8Shape.patterns, Seed: seed})
			prepNs += int64(time.Since(t0))
			if err != nil {
				return err
			}
			set := prep.TriadSet()
			for _, g := range triad.SuperGroups(set) {
				trs := make([]triad.Triad, len(g))
				for i, ti := range g {
					trs[i] = set[ti]
				}
				t0 := time.Now()
				res, err := prep.RunGroup(trs)
				groupNs += int64(time.Since(t0))
				if err != nil {
					return err
				}
				for i, ti := range g {
					if ti == 0 && res[i].BER() != 0 {
						o.fail("charz replay: %s non-zero BER at the nominal triad", prep.Config.BenchName())
					}
				}
				groups++
			}
			points += len(set)
			if err := simReplay(prep, seed, &sr); err != nil {
				return err
			}
		}
	}
	ops := float64(len(fig8Shape.arches) * len(fig8Shape.widths))
	o.metrics["charz.prepare_ms"] = float64(prepNs) / 1e6 / ops
	o.metrics["charz.rungroup_ms"] = float64(groupNs) / 1e6 / float64(groups)
	o.metrics["charz.ns_per_point_pattern"] = float64(groupNs) / float64(points*fig8Shape.patterns)
	o.metrics["sim.events_per_pattern"] = float64(sr.transitions) / float64(sr.steps)
	o.metrics["sim.ns_per_event"] = float64(sr.traceNs) / float64(sr.transitions)
	o.metrics["sim.retime_ok_ratio"] = float64(sr.retimeOK) / float64(sr.retimeOK+sr.retimeFallback)
	o.metrics["sim.resample_ns"] = float64(sr.resampleNs) / float64(sr.resamples)
	o.metrics["metrics.addlanes_ns"] = float64(sr.addNs) / float64(sr.adds)
	return nil
}

type simReplayStats struct {
	transitions, steps       uint64
	traceNs                  int64
	retimeOK, retimeFallback uint64
	resampleNs, resamples    int64
	addNs, adds              int64
}

// simReplayChunks is how many K×64-pattern waves each operator replays.
const simReplayChunks = 8

// simReplay drives one operator's nominal body-bias family through the
// wide simulator the way a grouped sweep does: a fresh trace at the
// nominal point, an order-checked retime to every other supply of the
// family, a resample per clock; and folds 64-lane blocks into an error
// accumulator.
func simReplay(prep *charz.Prepared, seed uint64, sr *simReplayStats) error {
	cfg, nl := prep.Config, prep.Netlist
	set := prep.TriadSet()
	nominal := set[0].OperatingPoint()
	type point struct {
		op      triad.Triad // first triad at the electrical point
		horizon float64
		clocks  []float64
	}
	var pts []*point
	byOp := map[[2]float64]*point{}
	for _, t := range set {
		if t.Vbb != nominal.Vbb {
			continue
		}
		key := [2]float64{t.Vdd, t.Vbb}
		p := byOp[key]
		if p == nil {
			p = &point{op: t}
			byOp[key] = p
			pts = append(pts, p)
		}
		p.clocks = append(p.clocks, t.Tclk)
		if t.Tclk > p.horizon {
			p.horizon = t.Tclk
		}
	}
	k := sim.MaxWideWords
	engs := make([]*sim.WideEngine, len(pts))
	for i, p := range pts {
		e, err := sim.NewWide(nl, cfg.Lib, *cfg.Proc, p.op.OperatingPoint(), k)
		if err != nil {
			return err
		}
		engs[i] = e
	}
	pa, _ := nl.InputPort(synth.PortA)
	pb, _ := nl.InputPort(synth.PortB)
	ps, _ := nl.OutputPort(synth.PortSum)
	pc, _ := nl.OutputPort(synth.PortCout)
	tracked := append(append([]netlist.NetID(nil), ps.Bits...), pc.Bits...)
	gen, err := patterns.NewPropagateProfile(cfg.Width, 0.5, seed)
	if err != nil {
		return err
	}
	prev := make([]uint64, nl.NumNets()*k)
	cur := make([]uint64, nl.NumNets()*k)
	setLane := func(img []uint64, port netlist.Port, lane int, v uint64) {
		for q, id := range port.Bits {
			if v>>uint(q)&1 == 1 {
				img[int(id)*k+lane/64] |= 1 << uint(lane%64)
			}
		}
	}
	var dst sim.WideTrace
	var sample sim.WideSample
	anchor := engs[0]
	st0 := anchor.Stats()
	for c := 0; c < simReplayChunks; c++ {
		clear(prev)
		clear(cur)
		for lane := 0; lane < 64*k; lane++ {
			a0, b0 := gen.Next()
			a1, b1 := gen.Next()
			setLane(prev, pa, lane, a0)
			setLane(prev, pb, lane, b0)
			setLane(cur, pa, lane, a1)
			setLane(cur, pb, lane, b1)
		}
		t0 := time.Now()
		tr, err := anchor.StepWideTrace(prev, cur, tracked, pts[0].horizon)
		sr.traceNs += int64(time.Since(t0))
		if err != nil {
			return err
		}
		for i := 1; i < len(pts); i++ {
			if _, err := engs[i].RetimeTrace(tr, pts[i].horizon, &dst); err != nil {
				return err
			}
		}
		for _, tclk := range pts[0].clocks {
			t0 := time.Now()
			for r := 0; r < 16; r++ {
				if err := tr.Resample(tclk, &sample); err != nil {
					return err
				}
			}
			sr.resampleNs += int64(time.Since(t0))
			sr.resamples += 16
		}
	}
	st := anchor.Stats()
	sr.transitions += st.Transitions - st0.Transitions
	sr.steps += st.Steps - st0.Steps
	for _, e := range engs[1:] {
		ok, fb := e.RetimeStats()
		sr.retimeOK += ok
		sr.retimeFallback += fb
	}
	// Accumulator: 64 reference words against width+1 output lanes.
	rng := rand.New(rand.NewPCG(seed, 1))
	acc := metrics.NewErrorAccumulator(len(tracked))
	refs := make([]uint64, 64)
	got := make([]uint64, len(tracked))
	for i := range refs {
		refs[i] = rng.Uint64() & (1<<uint(len(tracked)) - 1)
	}
	for i := range got {
		got[i] = rng.Uint64()
	}
	const adds = 4096
	t0 := time.Now()
	for i := 0; i < adds; i++ {
		if err := acc.AddLanes(refs, got); err != nil {
			return err
		}
	}
	sr.addNs += int64(time.Since(t0))
	sr.adds += adds
	return nil
}
