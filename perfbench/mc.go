package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/charz"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/triad"
	"repro/vos"
)

// mcDeep's cell: RCA16 at Tclk 0.212 ns, 0.7 V, no body bias, where
// the gate simulator shows a BER near 4.6%.
var (
	mcTriad   = vos.Triad{Tclk: 0.212, Vdd: 0.7, Vbb: 0}
	mcKernels = []string{"fir", "blur"}
)

const (
	mcArch = "RCA"
	// mcSamples per kernel: about 1e6 samples per job.
	mcSamples = 500_000
	// mcRSSOps is the job count after which peak RSS is read.
	mcRSSOps = 3
	// snrCap is the quality value of an exact output (core.CapSNR).
	snrCap = 99
)

func mcSpec(seed uint64) *vos.MCSpec {
	return vos.NewMCSpec(mcKernels...).Arch(mcArch).Triads(mcTriad).Samples(mcSamples).Seed(seed)
}

func mcRequest(seed uint64) engine.MCRequest {
	return engine.MCRequest{Kernels: mcKernels, Arch: mcArch, Triads: []triad.Triad{triad.Triad(mcTriad)},
		Policy: engine.PolicyExplicit, Samples: mcSamples, Seed: seed}
}

// checkMC verifies a job's cells: the requested sample count (rounded
// up to whole reps), and the deep-VOS regime — a non-zero error rate
// and a quality below the exact-output cap. A cell at the cap would
// time error-free arithmetic, which is not the regime the paper
// studies.
func checkMC(res *vos.MCResult) (int64, error) {
	if len(res.Points) != len(mcKernels) {
		return 0, fmt.Errorf("%d cells, want %d", len(res.Points), len(mcKernels))
	}
	var samples int64
	for _, p := range res.Points {
		k, ok := apps.MCKernelByName(p.Kernel)
		if !ok {
			return 0, fmt.Errorf("unknown kernel %q", p.Kernel)
		}
		if want := int64(engine.MCReps(mcSamples, k)) * int64(k.RepSize); p.Samples != want {
			return 0, fmt.Errorf("%s: %d samples, want %d", p.Kernel, p.Samples, want)
		}
		if p.ErrorRate == 0 || (p.Metric != "rmse" && p.Mean >= snrCap) {
			return 0, fmt.Errorf("%s: error rate %g, mean %s %g: not in the erroneous regime", p.Kernel, p.ErrorRate, p.Metric, p.Mean)
		}
		samples += p.Samples
	}
	return samples, nil
}

func mcDeep(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	// Set-up boots the engine and runs one single-rep job at the cell,
	// which calibrates its error model (memoized per triad).
	local, setupS, err := repeatSetup(9, func(int) (*vos.Local, func(), error) {
		l, err := vos.NewLocal(vos.LocalOptions{})
		if err != nil {
			return nil, nil, err
		}
		if _, err := l.RunMC(ctx, vos.NewMCSpec(mcKernels...).Arch(mcArch).Triads(mcTriad).Samples(1).Seed(1)); err != nil {
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
		return o, mcTraced(ctx, cfg, local, seeds, o)
	}
	var lats []float64
	var samples int64
	rss := 0.0
	alloc0 := heapAllocBytes()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for o.attempted == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		res, err := local.RunMC(ctx, mcSpec(seeds.next()))
		lat := ms(time.Since(t0))
		o.attempted++
		var n int64
		if err == nil {
			n, err = checkMC(res)
		}
		if err != nil {
			o.failed++
			o.note("job %d: %v", o.attempted, err)
			continue
		}
		lats = append(lats, lat)
		samples += n
		if o.attempted == mcRSSOps {
			rss = peakRSSMB()
		}
	}
	elapsed := time.Since(start).Seconds()
	if rss == 0 {
		rss = peakRSSMB()
	}
	sum := summarize(lats)
	o.metrics["latency_p50_ms"] = sum.P50
	o.metrics["latency_tail_ms"] = sum.Tail
	o.metrics["throughput_per_s"] = float64(samples) / elapsed
	o.metrics["peak_rss_mb"] = rss
	o.metrics["alloc_mb_per_op"] = float64(heapAllocBytes()-alloc0) / (1 << 20) / float64(o.attempted)
	o.note("throughput_per_s is Monte Carlo samples per second")
	o.note("latency tail is p%d of %d jobs; fail_frac %d/%d", sum.TailPct, sum.N, o.failed, o.attempted)
	return o, nil
}

// mcTraced issues jobs one at a time, alternating traced and untraced,
// then replays the cell through model, core and apps directly.
func mcTraced(ctx context.Context, cfg runConfig, local *vos.Local, seeds *seedStream, o *outcome) error {
	tr := newTracer()
	live0 := liveHeapBytes()
	var traced, plain []float64
	deadline := time.Now().Add(time.Duration(0.4 * cfg.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		spec := mcSpec(seeds.next())
		o.attempted++
		t0 := time.Now()
		var res *vos.MCResult
		var err error
		if i%2 == 1 {
			res, err = local.RunMC(ctx, spec)
		} else {
			res, err = tracedMCOp(ctx, tr, local, spec)
		}
		lat := ms(time.Since(t0))
		if err == nil {
			_, err = checkMC(res)
		}
		if err != nil {
			o.failed++
			o.note("job: %v", err)
			continue
		}
		if i%2 == 1 {
			plain = append(plain, lat)
		} else {
			traced = append(traced, lat)
		}
	}
	o.metrics["engine.retained_kb_per_op"] = (float64(liveHeapBytes()) - float64(live0)) / 1024 / float64(o.attempted)
	o.metrics["trace.overhead_frac"] = median(traced)/median(plain) - 1
	finishSpans(cfg, "mc_deep", tr, o)
	ov, err := mcLocalOverhead(ctx, local, seeds.next())
	if err != nil {
		return err
	}
	o.metrics["vos.local_overhead_ms"] = ov
	return modelReplay(seeds.next(), o)
}

func tracedMCOp(ctx context.Context, tr *tracer, l *vos.Local, spec *vos.MCSpec) (*vos.MCResult, error) {
	var id string
	var res *vos.MCResult
	err := traceOp(tr,
		func() (err error) { id, err = l.SubmitMC(ctx, spec); return err },
		func() error { _, err := l.WaitMC(ctx, id); return err },
		func() (err error) { res, err = l.MCResults(ctx, id); return err })
	return res, err
}

// mcLocalOverhead is localOverhead for a finished Monte Carlo job of
// the workload's shape (one rep per kernel: the result's size, not its
// compute, sets the conversion cost).
func mcLocalOverhead(ctx context.Context, l *vos.Local, seed uint64) (float64, error) {
	eng, err := engine.New(engine.Options{})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	lid, err := l.SubmitMC(ctx, mcSpec(seed).Samples(1))
	if err != nil {
		return 0, err
	}
	req := mcRequest(seed)
	req.Samples = 1
	eid, err := eng.SubmitMC(req)
	if err != nil {
		return 0, err
	}
	if _, err := l.WaitMC(ctx, lid); err != nil {
		return 0, err
	}
	if _, err := eng.WaitMC(ctx, eid); err != nil {
		return 0, err
	}
	return medianGap(
		func() error {
			if _, err := l.WaitMC(ctx, lid); err != nil {
				return err
			}
			_, err := l.MCResults(ctx, lid)
			return err
		},
		func() error {
			if _, err := eng.WaitMC(ctx, eid); err != nil {
				return err
			}
			if _, ok := eng.GetMC(eid); !ok {
				return fmt.Errorf("engine: job %s vanished", eid)
			}
			return nil
		})
}

// modelReplayReps is how many reps per kernel the replay times.
const modelReplayReps = 24

// modelReplay calibrates the cell's error model once (Calibrator.Point,
// first call), then runs reps the way a Monte Carlo job does: one
// core.NewApproxAdder per rep and one MCKernel.RunRep through it.
func modelReplay(seed uint64, o *outcome) error {
	arch, err := archByName(mcArch)
	if err != nil {
		return err
	}
	prep, err := charz.Prepare(charz.Config{Arch: arch, Width: apps.Word, Patterns: 2000, Seed: seed, Backend: charz.BackendModel})
	if err != nil {
		return err
	}
	cal, err := model.NewCalibrator(model.DefaultSpec(), nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	trained, err := cal.Point(prep, triad.Triad(mcTriad))
	o.metrics["model.calibrate_ms"] = ms(time.Since(t0))
	if err != nil {
		return err
	}
	var newNs int64
	var allocs uint64
	reps := 0
	for _, name := range mcKernels {
		k, _ := apps.MCKernelByName(name)
		var runNs int64
		for r := 0; r < modelReplayReps; r++ {
			rs := model.RepSeed(seed, r)
			a0 := heapAllocObjects()
			t0 := time.Now()
			approx, err := core.NewApproxAdder(trained.Model, rs)
			newNs += int64(time.Since(t0))
			if err != nil {
				return err
			}
			ar, err := apps.NewArith(approx)
			if err != nil {
				return err
			}
			t0 = time.Now()
			res, err := k.RunRep(rs, ar)
			runNs += int64(time.Since(t0))
			allocs += heapAllocObjects() - a0
			if err != nil {
				return err
			}
			if res.Errors == 0 {
				o.fail("model replay: %s rep %d ran error-free at the deep-VOS cell", name, r)
			}
			reps++
		}
		o.metrics["apps.ns_per_sample."+name] = float64(runNs) / float64(modelReplayReps*k.RepSize)
	}
	o.metrics["core.approx_new_us"] = float64(newNs) / 1e3 / float64(reps)
	o.metrics["apps.allocs_per_rep"] = float64(allocs) / float64(reps)
	return nil
}
