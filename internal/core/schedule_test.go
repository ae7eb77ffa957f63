package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// Trainers on the paper's two cohorts at full size: school (80,000,
// beneficial) and compas (7,214, adverse). On compas 100 refinement steps
// of 500 exceed the cohort, so the epoch reshuffles mid-run.
var (
	school80k = sync.OnceValue(func() *Trainer {
		d, err := synth.GenerateSchool(synth.DefaultSchoolConfig())
		if err != nil {
			panic(err)
		}
		return NewTrainer(d, rank.WeightedSum{Weights: synth.SchoolScoreWeights()})
	})
	compasFull = sync.OnceValue(func() *Trainer {
		d, err := synth.GenerateCompas(synth.DefaultCompasConfig())
		if err != nil {
			panic(err)
		}
		return NewTrainer(d, rank.WeightedSum{Weights: synth.CompasScoreWeights()})
	})
)

// setProcs sets GOMAXPROCS for the rest of the test. One train in flight
// prefetches its sample schedule at 2 procs and draws it inline at 1.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// scheduleVariant trains seed under one of five option sets, so a run of
// consecutive seeds covers Core mode, a fixed InitBonus, a MaxBonus cap
// and the logdisc objective next to the defaults.
func scheduleVariant(ctx context.Context, tr *Trainer, pol rank.Polarity, seed int64, trace func(TraceStep)) (Result, error) {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Polarity = pol
	opts.Trace = trace
	obj, err := ObjectiveByName("disparity", 0.05)
	if err != nil {
		return Result{}, err
	}
	switch seed % 5 {
	case 1:
		return tr.TrainCoreCtx(ctx, obj, opts)
	case 2:
		opts.InitBonus = make([]float64, tr.Dataset().NumFair())
		for j := range opts.InitBonus {
			opts.InitBonus[j] = 0.5 * float64(j+1)
		}
	case 3:
		opts.MaxBonus = 2
	case 4:
		if obj, err = ObjectiveByName("logdisc", 0.3); err != nil {
			return Result{}, err
		}
	}
	return tr.TrainCtx(ctx, obj, opts)
}

// prefetching reports whether a sample-schedule helper goroutine is
// running, read from the goroutine stacks into buf.
func prefetching(buf []byte) bool {
	n := runtime.Stack(buf, true)
	return bytes.Contains(buf[:n], []byte("sample.(*Schedule).prefetch("))
}

// helperGone waits briefly for any helper goroutine to finish exiting.
// Release returns once the helper has closed its done channel (pinned in
// package sample); the goroutine itself may still be unwinding then.
func helperGone(buf []byte) bool {
	for deadline := time.Now().Add(2 * time.Second); prefetching(buf); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// routeProbe returns a Trace callback that records, on the first step of
// a train, whether the train's schedule is being prefetched: at step one
// the helper is at most one ring ahead (96 samples at k = 500), short of
// the schedule's end, so it is still running.
func routeProbe(buf []byte, prefetched *bool) func(TraceStep) {
	first := true
	return func(TraceStep) {
		if first {
			*prefetched, first = prefetching(buf), false
		}
	}
}

// TestPrefetchedScheduleMatchesInline trains every seed twice on one
// Trainer, once with the sample schedule prefetched on a helper goroutine
// and once drawn inline, and requires bit-identical results. Each run
// also checks from inside the descent that it took the intended route.
func TestPrefetchedScheduleMatchesInline(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   func() *Trainer
		pol  rank.Polarity
	}{
		{"school-80k", school80k, rank.Beneficial},
		{"compas-7214", compasFull, rank.Adverse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr()
			buf := make([]byte, 64<<10)
			for seed := int64(1); seed <= 20; seed++ {
				var res [2]Result
				for i, procs := range []int{1, 2} {
					setProcs(t, procs)
					if !helperGone(buf) {
						t.Fatal("a helper outlived its train")
					}
					prefetched := false
					res[i], _ = scheduleVariant(context.Background(), tr, tc.pol, seed, routeProbe(buf, &prefetched))
					if prefetched != (procs == 2) {
						t.Fatalf("seed %d, %d procs: prefetched = %v", seed, procs, prefetched)
					}
				}
				in, pre := res[0], res[1]
				if len(in.Bonus) == 0 {
					t.Fatalf("seed %d: training failed", seed)
				}
				if !sameBits(in.Bonus, pre.Bonus) || !sameBits(in.Raw, pre.Raw) ||
					!sameBits(in.CoreBonus, pre.CoreBonus) || in.Steps != pre.Steps {
					t.Errorf("seed %d: prefetched %v/%v/%v (%d steps) != inline %v/%v/%v (%d steps)", seed,
						pre.Bonus, pre.Raw, pre.CoreBonus, pre.Steps, in.Bonus, in.Raw, in.CoreBonus, in.Steps)
				}
			}
		})
	}
}

// TestTrainCtxCancelStopsPrefetch cancels a prefetching train mid-ladder
// and mid-refinement: TrainCtx must return the context's error, and no
// helper goroutine may outlive it. The trainer then trains
// bit-identically to a fresh one.
func TestTrainCtxCancelStopsPrefetch(t *testing.T) {
	setProcs(t, 2)
	tr := school80k()
	obj := DisparityObjective(0.05)
	buf := make([]byte, 64<<10)
	for _, at := range []struct {
		stage string
		step  int
	}{{"core", 30}, {"refine", 1}} {
		t.Run(fmt.Sprintf("%s-%d", at.stage, at.step), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := DefaultOptions()
			prefetched := false
			opts.Trace = func(s TraceStep) {
				if s.Stage == at.stage && s.Step == at.step {
					// The helper runs until the last chunk is drawn. It
					// leads the step by at most one ring (96 samples at
					// k = 500), so the last of the schedule's 300 samples
					// waits for a slot freed past sample 207: both
					// cancellation points come before that.
					prefetched = prefetching(buf)
					cancel()
				}
			}
			if _, err := tr.TrainCtx(ctx, obj, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("TrainCtx error = %v, want context.Canceled", err)
			}
			if !helperGone(buf) {
				t.Fatal("a prefetch helper outlived the canceled TrainCtx")
			}
			if !prefetched {
				t.Fatal("the canceled train never prefetched")
			}
			got, err := tr.TrainCtx(t.Context(), obj, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewTrainer(tr.Dataset(), rank.WeightedSum{Weights: synth.SchoolScoreWeights()}).TrainCtx(context.Background(), obj, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got.Raw, want.Raw) {
				t.Errorf("post-cancel train %v != fresh trainer %v", got.Raw, want.Raw)
			}
		})
	}
}

// TestWarmTrainAllocations pins a warm Trainer's per-run garbage at 80k
// on both routes, inline at 1 proc and prefetched at 2, checking from
// each run's first step which route it took. The sampler's tables, epoch
// permutation, ring and generator come from the sample pool, so what
// remains is a few KB of fixed-size result, updater, hand-off and trace
// state, nothing proportional to the cohort. (testing.AllocsPerRun
// measures at GOMAXPROCS 1, so it would never see the prefetch route.)
func TestWarmTrainAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool items at random")
	}
	const budget = 64 << 10 // bytes per run
	tr := school80k()
	obj := DisparityObjective(0.05)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := make([]byte, 64<<10)
	for _, procs := range []int{1, 2} {
		setProcs(t, procs)
		opts := DefaultOptions()
		if _, err := tr.TrainCtx(ctx, obj, opts); err != nil { // fills the pool
			t.Fatal(err)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			prefetched := false
			opts.Seed++
			opts.Trace = routeProbe(buf, &prefetched)
			if _, err := tr.TrainCtx(ctx, obj, opts); err != nil {
				t.Fatal(err)
			}
			if prefetched != (procs == 2) {
				t.Fatalf("%d procs, run %d: prefetched = %v", procs, i, prefetched)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= budget {
			t.Errorf("%d procs: warm 80k train allocated %d B per run, budget %d B", procs, per, budget)
		}
	}
}
