package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/optimize"
	"fairrank/internal/rank"
	"fairrank/internal/sample"
)

// Options configures a DCA run. The zero value is not usable; start from
// DefaultOptions, which encodes the paper's empirical settings
// (Section V-B).
type Options struct {
	// SampleSize is the number of objects drawn per descent step. The paper
	// derives a lower bound of max(1/k, 1/r) * 30 with r the frequency of
	// the rarest group and uses 500 for the school data.
	SampleSize int
	// Ladder is the decreasing learning-rate schedule of Algorithm 1.
	Ladder optimize.Ladder
	// RefineSteps is the number of Adam steps in Algorithm 2; 0 disables
	// refinement (Core DCA).
	RefineSteps int
	// RefineLR is Adam's base step size during refinement.
	RefineLR float64
	// AverageWindow is how many trailing refinement iterates are averaged
	// ("the rolling average of the last 100 points"). Capped at
	// RefineSteps; 0 means all of them.
	AverageWindow int
	// Granularity rounds the final bonus points to a stakeholder-friendly
	// multiple (paper: 0.5). 0 disables rounding.
	Granularity float64
	// MaxBonus caps every bonus dimension (Section VI-A4); 0 means
	// unlimited. The cap is enforced at every step, which lets correlated
	// uncapped attributes absorb the residual.
	MaxBonus float64
	// Polarity states whether selection is beneficial (school admission,
	// bonus added) or adverse (recidivism flagging, bonus subtracted).
	Polarity rank.Polarity
	// Seed drives all sampling and the random initialization.
	Seed int64
	// InitBonus optionally fixes the starting vector (copied); otherwise
	// initialization is uniform in [0, 1) per dimension, as in Algorithm 1.
	InitBonus []float64
	// Trace, when non-nil, observes every descent step.
	Trace func(TraceStep)
}

// TraceStep is one observed descent step.
type TraceStep = engine.TraceStep

// DefaultOptions returns the paper's settings: sample size 500, learning
// rates {1.0, 0.1} for 100 steps each, 100 Adam refinement steps averaged
// over the trailing 100 iterates, and 0.5-point granularity.
func DefaultOptions() Options {
	return Options{
		SampleSize:    500,
		Ladder:        optimize.DefaultLadder(),
		RefineSteps:   100,
		RefineLR:      0.05,
		AverageWindow: 100,
		Granularity:   0.5,
		Polarity:      rank.Beneficial,
		Seed:          1,
	}
}

// Result is the outcome of a full DCA run.
type Result struct {
	// Bonus is the final bonus-point vector, rounded to Granularity,
	// indexed by fairness attribute.
	Bonus []float64
	// Raw is the unrounded vector after refinement averaging.
	Raw []float64
	// CoreBonus is the vector after Algorithm 1, before refinement.
	CoreBonus []float64
	// Steps is the total number of descent steps taken.
	Steps int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

func (o *Options) validate(d *dataset.Dataset) error {
	if d.N() == 0 {
		return fmt.Errorf("core: empty dataset")
	}
	if d.NumFair() == 0 {
		return fmt.Errorf("core: dataset has no fairness attributes")
	}
	if o.SampleSize <= 0 {
		return fmt.Errorf("core: sample size %d", o.SampleSize)
	}
	if o.SampleSize > d.N() {
		o.SampleSize = d.N()
	}
	if err := o.Ladder.Validate(); err != nil {
		return err
	}
	if o.RefineSteps < 0 {
		return fmt.Errorf("core: negative refinement steps %d", o.RefineSteps)
	}
	// The non-finite checks matter: NaN passes every `< 0` comparison, and
	// a NaN granularity or cap would silently poison the whole bonus
	// vector (Round(b/NaN)*NaN) instead of failing the run.
	if o.RefineSteps > 0 && (!(o.RefineLR > 0) || math.IsInf(o.RefineLR, 1)) {
		return fmt.Errorf("core: refinement enabled with step size %v", o.RefineLR)
	}
	if o.Granularity < 0 || math.IsNaN(o.Granularity) || math.IsInf(o.Granularity, 0) {
		return fmt.Errorf("core: granularity %v, want finite and non-negative", o.Granularity)
	}
	if o.MaxBonus < 0 || math.IsNaN(o.MaxBonus) || math.IsInf(o.MaxBonus, 0) {
		return fmt.Errorf("core: bonus cap %v, want finite and non-negative", o.MaxBonus)
	}
	if o.InitBonus != nil {
		if len(o.InitBonus) != d.NumFair() {
			return fmt.Errorf("core: initial bonus has %d dimensions, dataset has %d", len(o.InitBonus), d.NumFair())
		}
		for j, v := range o.InitBonus {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: initial bonus dimension %d: non-finite value %v", j, v)
			}
		}
	}
	return nil
}

// clampBonus enforces b >= 0 (the paper's "no penalties" requirement) and
// the optional per-dimension cap.
func clampBonus(b []float64, maxBonus float64) {
	engine.ClampBonus(b, maxBonus)
}

// RoundTo rounds every dimension of b to the nearest multiple of
// granularity (no-op when granularity is 0) and returns b.
func RoundTo(b []float64, granularity float64) []float64 {
	if granularity <= 0 {
		return b
	}
	for j := range b {
		b[j] = math.Round(b[j]/granularity) * granularity
	}
	return b
}

// Scale returns a copy of b multiplied by w and rounded to granularity —
// the proportional bonus reduction of Figures 2 and 3.
func Scale(b []float64, w, granularity float64) []float64 {
	out := make([]float64, len(b))
	for j := range b {
		out[j] = b[j] * w
	}
	return RoundTo(out, granularity)
}

// Trainer runs DCA repeatedly over one dataset and ranking function. It
// precomputes the base scores and owns an engine.Workspace, so repeated
// runs — the interactive what-if iteration of the paper, ensemble members,
// parameter sweeps — share buffers and allocate (almost) nothing per
// descent step. The sampler's n-sized scratch is not the Trainer's: each
// run borrows it from the sample package's pool and returns it.
//
// Every constructor makes sure the dataset's combo-row index exists
// (dataset.ComboIndex), so each descent step scores and centroids its
// sample from base scores plus the small combo-row table rather than
// from every fairness column.
//
// A Trainer is not safe for concurrent use: it owns a single workspace.
// Create one per goroutine (Ensemble does exactly that). A run may draw
// its samples on a helper goroutine (see sample.Schedule); the helper has
// exited by the time the run returns.
type Trainer struct {
	d    *dataset.Dataset
	base []float64
	ws   *engine.Workspace
}

// NewTrainer returns a trainer for the dataset under the given ranking
// function. Base scores are computed once, here.
func NewTrainer(d *dataset.Dataset, scorer rank.Scorer) *Trainer {
	return newTrainer(d, scorer.BaseScores(d), engine.NewWorkspace(d.NumFair()))
}

// NewTrainer returns a trainer over the evaluator's dataset that shares
// the evaluator's base scores instead of computing a second copy. The
// evaluator's scorer is the trainer's ranking function.
func (e *Evaluator) NewTrainer() *Trainer {
	return newTrainer(e.d, e.base, engine.NewWorkspace(e.d.NumFair()))
}

func newTrainer(d *dataset.Dataset, base []float64, ws *engine.Workspace) *Trainer {
	d.ComboIndex() // built here, not inside the first descent step
	return &Trainer{d: d, base: base, ws: ws}
}

// Clone returns a new Trainer over the same dataset and ranking function
// that shares the precomputed base scores but owns a fresh workspace, so
// the clone can train on another goroutine. A per-dataset trainer pool
// (the fairrankd service) clones its prototype instead of paying the
// O(n) base-score computation per worker.
func (t *Trainer) Clone() *Trainer {
	return &Trainer{d: t.d, base: t.base, ws: engine.NewWorkspace(t.d.NumFair())}
}

// Reset repoints the trainer at a new dataset and ranking function: base
// scores are recomputed, and the workspace is kept when the fairness
// dimensionality matches (its buffers grow on demand) and reallocated
// otherwise. It serves interactive what-if loops where the data itself
// changes — a revised cohort, an edited rubric — letting the caller keep
// one long-lived Trainer instead of rebuilding scratch state per revision.
func (t *Trainer) Reset(d *dataset.Dataset, scorer rank.Scorer) {
	d.ComboIndex()
	t.d = d
	t.base = scorer.BaseScores(d)
	if t.ws.Dims() != d.NumFair() {
		t.ws = engine.NewWorkspace(d.NumFair())
	}
}

// Dataset returns the underlying dataset.
func (t *Trainer) Dataset() *dataset.Dataset { return t.d }

// BaseScores returns the precomputed uncompensated scores (do not modify).
func (t *Trainer) BaseScores() []float64 { return t.base }

// TrainCtx executes the full DCA pipeline of the paper: Algorithm 1
// (ladder descent over random samples), Algorithm 2 (Adam refinement over
// epoch samples with trailing-average smoothing) when RefineSteps > 0, and
// final rounding to Granularity. obj is the fairness objective to drive to
// zero. The descent loop polls ctx every engine.CancelCheckInterval steps
// and returns the context's error, so a canceled caller gets its trainer
// back within one checkpoint interval; a context.Background() train skips
// the checkpoints and trains bit for bit as a live context does.
func (t *Trainer) TrainCtx(ctx context.Context, obj Objective, opts Options) (Result, error) {
	start := time.Now() //fairlint:allow determinism -- wall-clock Elapsed is pure observability; it never enters the trained bonus or any ranked output
	if err := opts.validate(t.d); err != nil {
		return Result{}, err
	}
	bound, err := BindObjective(obj, t.d)
	if err != nil {
		return Result{}, err
	}
	smp := sample.Acquire(t.d.N(), opts.Seed)
	defer smp.Release() // also waits for the schedule's prefetch helper
	b := initBonus(t.d, smp, opts)
	loop := t.loop(ctx, bound, opts)

	// Past initBonus the stream feeds only the sample schedule, so it can
	// be drawn ahead of the descent (see sample.Schedule).
	sched := smp.Schedule(opts.SampleSize, opts.Ladder.TotalSteps(), opts.RefineSteps)
	ladder := engine.NewLadderUpdater(opts.Ladder, opts.Polarity.Sign())
	steps, err := loop.Descend(b, opts.Ladder.TotalSteps(), sched.Next, ladder, "core")
	if err != nil {
		return Result{}, err
	}
	res := Result{CoreBonus: append([]float64(nil), b...), Steps: steps}

	if opts.RefineSteps > 0 {
		adam := engine.NewAdamUpdater(t.d.NumFair(), opts.RefineLR, opts.Polarity.Sign(), opts.RefineSteps, opts.AverageWindow)
		rsteps, err := loop.Descend(b, opts.RefineSteps, sched.Next, adam, "refine")
		if err != nil {
			return Result{}, err
		}
		adam.Average(b)
		clampBonus(b, opts.MaxBonus)
		res.Steps += rsteps
	}
	res.Raw = append([]float64(nil), b...)
	res.Bonus = RoundTo(b, opts.Granularity)
	clampBonus(res.Bonus, opts.MaxBonus)
	res.Elapsed = time.Since(start)
	return res, nil
}

// TrainCoreCtx executes Algorithm 1 only (no refinement, no rounding);
// see CoreDCA.
func (t *Trainer) TrainCoreCtx(ctx context.Context, obj Objective, opts Options) (Result, error) {
	opts.RefineSteps = 0
	return t.TrainCtx(ctx, obj, opts)
}

// TrainFullCtx executes the whole-dataset variant of Section IV-C; see
// FullDCA.
func (t *Trainer) TrainFullCtx(ctx context.Context, obj Objective, opts Options) (Result, error) {
	start := time.Now() //fairlint:allow determinism -- wall-clock Elapsed is pure observability; it never enters the trained bonus or any ranked output
	opts.SampleSize = t.d.N()
	opts.RefineSteps = 0
	if err := opts.validate(t.d); err != nil {
		return Result{}, err
	}
	bound, err := BindObjective(obj, t.d)
	if err != nil {
		return Result{}, err
	}
	smp := sample.Acquire(t.d.N(), opts.Seed)
	b := initBonus(t.d, smp, opts)
	smp.Release()

	all := t.ws.SampleBuf(t.d.N())
	for i := range all {
		all[i] = i
	}
	loop := t.loop(ctx, bound, opts)
	ladder := engine.NewLadderUpdater(opts.Ladder, opts.Polarity.Sign())
	steps, err := loop.Descend(b, opts.Ladder.TotalSteps(),
		func() []int { return all }, ladder, "full")
	if err != nil {
		return Result{}, err
	}
	res := Result{
		CoreBonus: append([]float64(nil), b...),
		Raw:       append([]float64(nil), b...),
		Bonus:     RoundTo(append([]float64(nil), b...), opts.Granularity),
		Steps:     steps,
		Elapsed:   time.Since(start),
	}
	clampBonus(res.Bonus, opts.MaxBonus)
	return res, nil
}

func (t *Trainer) loop(ctx context.Context, bound engine.Objective, opts Options) *engine.Loop {
	l := &engine.Loop{
		D:        t.d,
		Base:     t.base,
		Obj:      bound,
		Polarity: opts.Polarity,
		MaxBonus: opts.MaxBonus,
		WS:       t.ws,
		Trace:    opts.Trace,
	}
	// Background contexts stay out of the Loop so the step loop skips the
	// checkpoint branch entirely on the uncancellable paths.
	if ctx != context.Background() {
		l.Ctx = ctx
	}
	return l
}

// Run executes the full DCA pipeline on a one-shot Trainer; see
// Trainer.TrainCtx. Callers training repeatedly on the same dataset should
// hold a Trainer to reuse its buffers.
func Run(d *dataset.Dataset, scorer rank.Scorer, obj Objective, opts Options) (Result, error) {
	return NewTrainer(d, scorer).TrainCtx(context.Background(), obj, opts)
}

// CoreDCA executes Algorithm 1 only (no refinement, no rounding) and
// returns the raw bonus vector. The paper reports it as "Core DCA"; Table I
// applies granularity rounding to its output, which callers get via
// RoundTo.
func CoreDCA(d *dataset.Dataset, scorer rank.Scorer, obj Objective, opts Options) (Result, error) {
	opts.RefineSteps = 0
	return Run(d, scorer, obj, opts)
}

// FullDCA is the whole-dataset variant of Section IV-C: identical to
// Algorithm 1 but every step evaluates the objective on the entire
// population instead of a sample. It is O(ladder steps × n log n) and
// exists to validate the sampled algorithm (Theorem 4.1's swap guarantee
// holds exactly for it).
func FullDCA(d *dataset.Dataset, scorer rank.Scorer, obj Objective, opts Options) (Result, error) {
	return NewTrainer(d, scorer).TrainFullCtx(context.Background(), obj, opts)
}

func initBonus(d *dataset.Dataset, smp *sample.Sampler, opts Options) []float64 {
	b := make([]float64, d.NumFair())
	if opts.InitBonus != nil {
		copy(b, opts.InitBonus)
	} else {
		for j := range b {
			b[j] = smp.Rand().Float64()
		}
	}
	clampBonus(b, opts.MaxBonus)
	return b
}
