package faultinject

// Fault-injection sites. Each constant names one Fire call in production
// code; the chaos suite arms them individually. checkdocs.sh requires
// every site listed here to have a row in the ARCHITECTURE.md
// "Failure semantics" hook map.
const (
	// SiteTrainStart fires at the top of the train pipeline, after
	// decode/validation and before the trainer is acquired.
	SiteTrainStart = "train.start"
	// SiteEvaluateStart fires at the top of the sweep pipeline, before
	// any cache probe result is used.
	SiteEvaluateStart = "evaluate.start"
	// SiteCounterfactualStart fires at the top of the counterfactual
	// batch pipeline.
	SiteCounterfactualStart = "counterfactual.start"
	// SiteReportStart fires at the top of the audit-bundle pipeline.
	SiteReportStart = "report.start"
	// SiteExplainStart fires at the top of the explain pipeline.
	SiteExplainStart = "explain.start"
	// SiteTrainerAcquire fires inside Entry.acquire before a trainer
	// slot is claimed; an injected error simulates pool exhaustion.
	SiteTrainerAcquire = "trainer.acquire"
	// SiteRankPrefix fires inside Evaluator.rankedPrefixWS on the
	// non-zero-bonus path, ranked-order memo hits included; an injected
	// delay simulates a slow ranking pass under every sweep, bundle, and
	// counterfactual workload.
	SiteRankPrefix = "rank.prefix"
	// SiteBatcherFlush fires at the head of a micro-batch flush, before
	// the shared pass runs: an injected error fails every member with it,
	// an injected panic exercises the batcher's recovery shield (every
	// waiter is released with the same 500 the middleware answers), and a
	// delay holds the whole batch so member deadlines and the
	// all-members-gone cancellation can race it.
	SiteBatcherFlush = "batcher.flush"
)
