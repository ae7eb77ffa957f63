package service

import (
	"fmt"
	"strings"

	"fairrank/internal/core"
)

// The metric registry is the single source of truth for every sweep
// metric /v1/evaluate serves. Request validation, the dataset-capability
// guard, the sweep dispatch (a row's kind is the core plan's query kind,
// for core.SweepCtx and the shared-bonus plan alike) and the norm gather
// all consult this table, so adding a metric is one new row here plus
// its fold in the core plan — nothing else to keep in sync.
// (scripts/checkdocs.sh greps the name: fields below to demand that the
// ARCHITECTURE.md metric table documents every registered metric.)

// metricSpec describes one sweep metric end to end.
type metricSpec struct {
	// name is the wire name accepted by /v1/evaluate and cmd/dca -sweep.
	name string
	// kind is the core plan query kind the metric maps to; core.SweepCtx
	// refuses a kind that is not a metric instead of serving the wrong
	// one.
	kind core.BatchKind
	// scalar metrics answer with Values; vector metrics with
	// Vectors + Norms.
	scalar bool
	// ddpNorm metrics norm with the demographic-disparity finisher
	// (max − min over populated groups, recovered from the cached
	// per-capita vector) instead of the L2 norm.
	ddpNorm bool
	// check guards dataset capabilities the metric needs (outcomes,
	// binary fairness attributes). Nil means any dataset qualifies.
	check func(e *Entry) error
}

var metricSpecs = []metricSpec{
	{name: "disparity", kind: core.BatchDisparity},
	{name: "ndcg", kind: core.BatchNDCG, scalar: true},
	{name: "di", kind: core.BatchDisparateImpact},
	{name: "fpr", kind: core.BatchFPRDiff, check: needsOutcomes("fpr")},
	{name: "exposure", kind: core.BatchExposure, ddpNorm: true, check: needsBinaryFair("exposure")},
	{name: "expratio", kind: core.BatchExpRatio, check: checkAll(needsBinaryFair("expratio"), needsOutcomes("expratio"))},
	{name: "topk", kind: core.BatchTopK, check: needsBinaryFair("topk")},
}

// metricByName resolves a wire name against the registry.
func metricByName(name string) (metricSpec, bool) {
	for _, s := range metricSpecs {
		if s.name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}

// metricWantList renders the registered names for the unknown-metric
// error: "disparity, ndcg, di, fpr, exposure, expratio or topk".
func metricWantList() string {
	names := make([]string, len(metricSpecs))
	for i, s := range metricSpecs {
		names[i] = s.name
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// needsOutcomes guards metrics that compare against ground truth.
func needsOutcomes(metric string) func(e *Entry) error {
	return func(e *Entry) error {
		if !e.d.HasOutcomes() {
			return fmt.Errorf("dataset %q has no outcomes; %s sweeps require them", e.name, metric)
		}
		return nil
	}
}

// needsBinaryFair guards the exposure family, whose group membership is
// only defined for binary fairness attributes.
func needsBinaryFair(metric string) func(e *Entry) error {
	return func(e *Entry) error {
		if e.d.NumFair() == 0 {
			return fmt.Errorf("dataset %q has no fairness attributes; %s sweeps require binary ones", e.name, metric)
		}
		if ok, offending := e.d.BinaryFairColumns(); !ok {
			return fmt.Errorf("dataset %q: %s sweeps require binary fairness attributes; %q is continuous (register a WithFairColumns view of the binary columns)", e.name, metric, offending)
		}
		return nil
	}
}

func checkAll(checks ...func(e *Entry) error) func(e *Entry) error {
	return func(e *Entry) error {
		for _, c := range checks {
			if err := c(e); err != nil {
				return err
			}
		}
		return nil
	}
}
