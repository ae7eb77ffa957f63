package simulate

import (
	"context"
	"fmt"
	"math"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/metrics"
	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// CohortGenerator produces the population observed in a given year.
type CohortGenerator interface {
	Cohort(year int) (*dataset.Dataset, error)
}

// SchoolDrift generates school cohorts whose demographics and structural
// bias drift linearly over the years.
type SchoolDrift struct {
	// Base is the year-0 configuration.
	Base synth.SchoolConfig
	// LowIncomeRateStep is added to the low-income rate each year
	// (clamped to [0, 1]).
	LowIncomeRateStep float64
	// PenaltyGrowth multiplies all structural penalties by
	// (1+PenaltyGrowth)^year — bias worsening (positive) or easing
	// (negative) over time.
	PenaltyGrowth float64
	// SeedStep separates the cohort seeds across years.
	SeedStep int64
}

// Cohort implements CohortGenerator.
func (g SchoolDrift) Cohort(year int) (*dataset.Dataset, error) {
	cfg := g.Base
	cfg.Seed = g.Base.Seed + int64(year)*g.seedStep()
	cfg.LowIncomeRate = clamp01(cfg.LowIncomeRate + float64(year)*g.LowIncomeRateStep)
	growth := math.Pow(1+g.PenaltyGrowth, float64(year))
	cfg.PenaltyLowIncome *= growth
	cfg.PenaltyELL *= growth
	cfg.PenaltySpecialEd *= growth
	cfg.PenaltyENI *= growth
	return synth.GenerateSchool(cfg)
}

func (g SchoolDrift) seedStep() int64 {
	if g.SeedStep == 0 {
		return 1
	}
	return g.SeedStep
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Policy decides the bonus vector applied to each year's cohort. prior is
// the previous year's cohort (the most recent data available at decision
// time); it is nil in year 0 for policies that have no training data yet.
type Policy interface {
	PolicyName() string
	Vector(year int, prior *dataset.Dataset) ([]float64, error)
}

// NoPolicy applies no compensation — the drifting baseline.
type NoPolicy struct{}

// PolicyName implements Policy.
func (NoPolicy) PolicyName() string { return "none" }

// Vector implements Policy.
func (NoPolicy) Vector(int, *dataset.Dataset) ([]float64, error) { return nil, nil }

// StaticPolicy trains once on the first cohort it sees and reuses the
// vector forever — the set-and-forget failure mode under drift.
type StaticPolicy struct {
	Scorer    rank.Scorer
	Objective core.Objective
	Opts      core.Options

	trained []float64
}

// PolicyName implements Policy.
func (p *StaticPolicy) PolicyName() string { return "static" }

// Vector implements Policy.
func (p *StaticPolicy) Vector(year int, prior *dataset.Dataset) ([]float64, error) {
	if p.trained != nil {
		return p.trained, nil
	}
	if prior == nil {
		return nil, nil // nothing to train on yet
	}
	res, err := core.Run(prior, p.Scorer, p.Objective, p.Opts)
	if err != nil {
		return nil, err
	}
	p.trained = res.Bonus
	return p.trained, nil
}

// RetrainPolicy retrains on the previous cohort every year — the paper's
// "quickly and easily adjusted to new data and scenarios" mode, viable
// because DCA runs in milliseconds.
type RetrainPolicy struct {
	Scorer    rank.Scorer
	Objective core.Objective
	Opts      core.Options
}

// PolicyName implements Policy.
func (p *RetrainPolicy) PolicyName() string { return "retrain" }

// Vector implements Policy.
func (p *RetrainPolicy) Vector(year int, prior *dataset.Dataset) ([]float64, error) {
	if prior == nil {
		return nil, nil
	}
	res, err := core.Run(prior, p.Scorer, p.Objective, p.Opts)
	if err != nil {
		return nil, err
	}
	return res.Bonus, nil
}

// YearOutcome records one policy-year.
type YearOutcome struct {
	Year  int
	Bonus []float64
	// Disparity of the year's top-K selection under the applied vector.
	Disparity []float64
	Norm      float64
	NDCG      float64
}

// PolicyOutcome is a policy's trajectory over the simulation horizon.
type PolicyOutcome struct {
	Policy string
	Years  []YearOutcome
}

// Run simulates `years` consecutive cohorts. Every policy sees the same
// cohorts; vectors are chosen using only the previous year's data (no
// look-ahead).
func Run(gen CohortGenerator, scorer rank.Scorer, policies []Policy, years int, k float64) ([]PolicyOutcome, error) {
	if years < 1 {
		return nil, fmt.Errorf("simulate: %d years", years)
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("simulate: no policies")
	}
	out := make([]PolicyOutcome, len(policies))
	for i, p := range policies {
		out[i] = PolicyOutcome{Policy: p.PolicyName()}
	}
	var prior *dataset.Dataset
	for year := 0; year < years; year++ {
		cohort, err := gen.Cohort(year)
		if err != nil {
			return nil, fmt.Errorf("simulate: year %d cohort: %w", year, err)
		}
		ev := core.NewEvaluator(cohort, scorer, rank.Beneficial)
		for i, p := range policies {
			bonus, err := p.Vector(year, prior)
			if err != nil {
				return nil, fmt.Errorf("simulate: year %d policy %s: %w", year, p.PolicyName(), err)
			}
			disp, err := ev.DisparityCtx(context.Background(), bonus, k)
			if err != nil {
				return nil, err
			}
			ndcg, err := ev.NDCGCtx(context.Background(), bonus, k)
			if err != nil {
				return nil, err
			}
			out[i].Years = append(out[i].Years, YearOutcome{
				Year:      year,
				Bonus:     append([]float64(nil), bonus...),
				Disparity: disp,
				Norm:      metrics.Norm(disp),
				NDCG:      ndcg,
			})
		}
		prior = cohort
	}
	return out, nil
}
