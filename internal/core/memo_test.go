package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"fairrank/internal/rank"
	"fairrank/internal/synth"
)

// forgetOrders empties every slot of the ranked-order memo, so the next
// plan ranks its bonus cold. Benchmarks that repeat one bonus per op call
// it before each op to keep timing the ranking route they were written
// for.
func (e *Evaluator) forgetOrders() {
	e.memo.mu.Lock()
	defer e.memo.mu.Unlock()
	for i := range e.memo.slots {
		s := &e.memo.slots[i]
		s.bonus, s.ord, s.used = s.bonus[:0], nil, 0
	}
}

// whatIfSession is the question sequence a stakeholder asks of one bonus
// vector: a disparity sweep to k=1, then at k=0.05 an audit bundle,
// counterfactuals for 32 objects and an explanation.
type whatIfSession struct {
	sweep  [][]float64
	bundle *BundleStats
	cfs    []Counterfactual
	exp    *Explanation
}

func sessionObjects(n int) []int {
	objs := make([]int, 32)
	for i := range objs {
		objs[i] = (i * n) / 33
	}
	return objs
}

// runWhatIfSession asks the session's questions in order.
func runWhatIfSession(t testing.TB, ev *Evaluator, bonus []float64) whatIfSession {
	t.Helper()
	pts := make([]SweepPoint, 20)
	for i := range pts {
		pts[i] = SweepPoint{Bonus: bonus, K: float64(i+1) / 20}
	}
	var s whatIfSession
	var err error
	if s.sweep, err = ev.DisparitySweepCtx(t.Context(), pts); err != nil {
		t.Fatal(err)
	}
	if s.bundle, err = ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: bonus, K: 0.05, Margins: 8}); err != nil {
		t.Fatal(err)
	}
	if s.cfs, err = ev.CounterfactualBatchCtx(t.Context(), bonus, 0.05, sessionObjects(ev.Dataset().N())); err != nil {
		t.Fatal(err)
	}
	if s.exp, err = ev.ExplainCtx(t.Context(), bonus, 0.05); err != nil {
		t.Fatal(err)
	}
	return s
}

// coldWhatIfSession answers the same questions on a fresh evaluator,
// emptying its memo before each, so each question is ranked (or merged)
// from scratch.
func coldWhatIfSession(t testing.TB, ev *Evaluator, bonus []float64) whatIfSession {
	t.Helper()
	var s whatIfSession
	var err error
	if s.exp, err = ev.ExplainCtx(t.Context(), bonus, 0.05); err != nil {
		t.Fatal(err)
	}
	ev.forgetOrders()
	if s.bundle, err = ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: bonus, K: 0.05, Margins: 8}); err != nil {
		t.Fatal(err)
	}
	ev.forgetOrders()
	if s.cfs, err = ev.CounterfactualBatchCtx(t.Context(), bonus, 0.05, sessionObjects(ev.Dataset().N())); err != nil {
		t.Fatal(err)
	}
	if ev.MemoHitCount() != 0 {
		t.Fatalf("cold session hit the memo %d times", ev.MemoHitCount())
	}
	return s
}

// TestMemoWhatIfSessionBudget pins the across-request memo on the 80k
// school cohort: after a sweep to k=1 has ranked the bonus once, the
// audit bundle, the counterfactuals and the explanation at k=0.05 spend
// no further ranking and exactly the bundle's leave-one-out merges (one
// per non-zero bonus entry), read the memo three times, and answer bit
// for bit what a fresh evaluator answers cold.
func TestMemoWhatIfSessionBudget(t *testing.T) {
	d := school80k().Dataset()
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	ev := NewEvaluator(d, scorer, rank.Beneficial)
	bonus := []float64{2, 11, 10.5, 12.5}

	pts := make([]SweepPoint, 20)
	for i := range pts {
		pts[i] = SweepPoint{Bonus: bonus, K: float64(i+1) / 20}
	}
	sweep, err := ev.DisparitySweepCtx(t.Context(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if r, m, h := ev.RankingCount(), ev.MergeCount(), ev.MemoHitCount(); r != 1 || m != 0 || h != 0 {
		t.Fatalf("sweep to k=1: %d rankings, %d merges, %d memo hits; want 1, 0, 0", r, m, h)
	}
	r0, m0, h0 := ev.RankingCount(), ev.MergeCount(), ev.MemoHitCount()
	st, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: bonus, K: 0.05, Margins: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := ev.CounterfactualBatchCtx(t.Context(), bonus, 0.05, sessionObjects(d.N()))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := ev.ExplainCtx(t.Context(), bonus, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if dr, dm, dh := ev.RankingCount()-r0, ev.MergeCount()-m0, ev.MemoHitCount()-h0; dr != 0 || dm != int64(len(bonus)) || dh != 3 {
		t.Errorf("report, counterfactuals and explanation after the sweep: %d rankings, %d merges, %d memo hits; want 0, %d (the leave-one-out prefixes), 3",
			dr, dm, dh, len(bonus))
	}

	want := coldWhatIfSession(t, NewEvaluator(d, scorer, rank.Beneficial), bonus)
	coldSweep, err := NewEvaluator(d, scorer, rank.Beneficial).DisparitySweepCtx(t.Context(), pts)
	if err != nil {
		t.Fatal(err)
	}
	got := whatIfSession{sweep: sweep, bundle: st, cfs: cfs, exp: exp}
	want.sweep = coldSweep
	if !reflect.DeepEqual(got, want) {
		t.Error("memo-served session differs from the cold answers")
	}
}

// TestMemoSessionUnindexed runs the session on a cohort with continuous
// fairness attributes, where the dataset declines its combo-row index and
// a memo hit scores the emitted ids through the column route.
func TestMemoSessionUnindexed(t *testing.T) {
	cfg := synth.DefaultSchoolConfig()
	cfg.N, cfg.ENILevels = 3000, 0
	d, err := synth.GenerateSchool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.ComboIndex(); ok {
		t.Fatal("continuous cohort built a combo-row index")
	}
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	for _, pol := range []rank.Polarity{rank.Beneficial, rank.Adverse} {
		bonus := []float64{2, 11, 10.5, 12.5}
		ev := NewEvaluator(d, scorer, pol)
		got := runWhatIfSession(t, ev, bonus)
		if ev.MemoHitCount() != 3 {
			t.Errorf("%v: session hit the memo %d times, want 3", pol, ev.MemoHitCount())
		}
		want := coldWhatIfSession(t, NewEvaluator(d, scorer, pol), bonus)
		want.sweep = got.sweep
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: memo-served session differs from the cold answers", pol)
		}
	}
}

// TestMemoSlotReplaceAndExtend pins a slot's life cycle through the
// counters: a plan stores a new bonus and extends it when its bonus was
// ranked further; a shorter request on the stored bonus hits; a
// counterfactual hits once the slot holds its merge-eligible prefix of
// cnt+1 positions; a bonus stored to all n holds the memo's whole budget,
// so the next new bonus evicts it; and a zero bonus, Select and a
// bundle's leave-one-out fan never write.
func TestMemoSlotReplaceAndExtend(t *testing.T) {
	ev := mergeEvaluator(t, 4000)
	n := ev.Dataset().N()
	a, b := []float64{2, 11, 10.5, 12.5}, []float64{0, 7, 0, 3}
	step := func(label string, call func() error, wantHits int64) {
		t.Helper()
		h0 := ev.MemoHitCount()
		if err := call(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := ev.MemoHitCount() - h0; got != wantHits {
			t.Errorf("%s: %d memo hits, want %d", label, got, wantHits)
		}
	}
	disp := func(bonus []float64, k float64) func() error {
		return func() error { _, err := ev.DisparityCtx(t.Context(), bonus, k); return err }
	}
	cf := func(bonus []float64) func() error {
		return func() error {
			_, err := ev.CounterfactualBatchCtx(t.Context(), bonus, 0.05, []int{0, n - 1})
			return err
		}
	}
	sel := func(bonus []float64) func() error {
		return func() error { _, err := ev.SelectCtx(t.Context(), bonus, 0.01); return err }
	}

	step("Select on an empty slot", sel(a), 0)
	step("Select never writes", sel(a), 0)
	step("first plan on a", disp(a, 0.05), 0)
	step("shorter prefix of a", disp(a, 0.01), 1)
	step("Select reads the slot", sel(a), 1)
	step("longer prefix of a", disp(a, 0.2), 0)
	step("the extended prefix", disp(a, 0.2), 1)
	step("counterfactual on a's merged prefix", cf(a), 1)
	step("sweep to k=1 extends a to n", disp(a, 1), 0)
	step("full request on a", cf(a), 1)
	step("zero bonus", disp(nil, 0.05), 0)
	step("a survives a zero-bonus plan", disp(a, 0.5), 1)
	step("bundle on b evicts a, which holds all n", func() error {
		_, err := ev.BundleStatsCtx(t.Context(), BundleStatsConfig{Bonus: b, K: 0.05})
		return err
	}, 0)
	step("b is stored", disp(b, 0.05), 1)
	step("a was evicted", disp(a, 0.01), 0)
	loo := []float64{0, 7, 0, 0} // b with its last entry withdrawn
	step("a leave-one-out vector was never written", disp(loo, 0.01), 0)
}

// memoPolicies returns m distinct bonus vectors on the paper's 0.5-point
// grid, shaped like published school policies.
func memoPolicies(m int) [][]float64 {
	ps := make([][]float64, m)
	for i := range ps {
		ps[i] = []float64{2 + 0.5*float64(i), 10.5, 9, 12}
	}
	return ps
}

// checkMemoBudget fails when the memo's arena is longer than n or a
// slot's positions are not a window of the arena disjoint from every
// other slot's.
func checkMemoBudget(t *testing.T, ev *Evaluator, label string) {
	t.Helper()
	ev.memo.mu.Lock()
	defer ev.memo.mu.Unlock()
	m := &ev.memo
	if n := ev.Dataset().N(); len(m.arena) > n {
		t.Errorf("%s: the arena holds %d positions, more than n = %d", label, len(m.arena), n)
	}
	owner := make([]int, len(m.arena))
	for i := range m.slots {
		s := &m.slots[i]
		if len(s.ord) == 0 {
			continue
		}
		if s.off+len(s.ord) > len(m.arena) || unsafe.SliceData(s.ord) != &m.arena[s.off] {
			t.Errorf("%s: slot %d is not the arena window at %d", label, i, s.off)
			continue
		}
		for q := s.off; q < s.off+len(s.ord); q++ {
			if owner[q] != 0 {
				t.Errorf("%s: slots %d and %d share arena position %d", label, owner[q]-1, i, q)
				break
			}
			owner[q] = i + 1
		}
	}
}

// memoArena returns the memo's arena, to tell whether a request grew it.
func memoArena(ev *Evaluator) []int32 {
	ev.memo.mu.Lock()
	defer ev.memo.mu.Unlock()
	return ev.memo.arena
}

// stored reports whether the memo holds positions for bonus.
func stored(ev *Evaluator, bonus []float64) bool {
	ev.memo.mu.Lock()
	defer ev.memo.mu.Unlock()
	s := ev.memo.find(bonus)
	return s != nil && len(s.ord) > 0
}

// TestMemoPortalCounterfactuals pins the memo on the portal's question:
// one-object counterfactuals at k=0.05 alternating over published
// policies. The merge-eligible prefix of cnt+1 positions answers a
// counterfactual, so each policy merges once and then hits until it is
// evicted; the slots hold memoSlots policies, and one past the cap evicts
// the least recently used and reuses its room in the arena. Throughout,
// the arena holds at most n positions, every slot is a window of it
// disjoint from the others, and every answer equals a fresh evaluator's.
func TestMemoPortalCounterfactuals(t *testing.T) {
	ev := mergeEvaluator(t, 4000)
	d := ev.Dataset()
	n := d.N()
	scorer := rank.WeightedSum{Weights: synth.SchoolScoreWeights()}
	pols := memoPolicies(memoSlots + 1)
	want := make([][][]Counterfactual, len(pols))
	objs := []int{0, 17, n / 3, n / 2, n - 1}
	for pi, pol := range pols {
		fresh := NewEvaluator(d, scorer, rank.Beneficial)
		for _, obj := range objs {
			cf, err := fresh.CounterfactualBatchCtx(t.Context(), pol, 0.05, []int{obj})
			if err != nil {
				t.Fatal(err)
			}
			want[pi] = append(want[pi], cf)
		}
	}
	ask := func(label string, pi int, wantMerges, wantHits int64) {
		t.Helper()
		r0, m0, h0 := ev.RankingCount(), ev.MergeCount(), ev.MemoHitCount()
		for oi, obj := range objs {
			got, err := ev.CounterfactualBatchCtx(t.Context(), pols[pi], 0.05, []int{obj})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[pi][oi]) {
				t.Errorf("%s: policy %d object %d differs from a fresh evaluator", label, pi, obj)
			}
		}
		if dr, dm, dh := ev.RankingCount()-r0, ev.MergeCount()-m0, ev.MemoHitCount()-h0; dr != 0 || dm != wantMerges || dh != wantHits {
			t.Errorf("%s: policy %d: %d rankings, %d merges, %d memo hits; want 0, %d, %d", label, pi, dr, dm, dh, wantMerges, wantHits)
		}
		checkMemoBudget(t, ev, label)
	}
	per := int64(len(objs))
	for pi := 0; pi < memoSlots; pi++ {
		ask("first round", pi, 1, per-1)
	}
	for pi := 0; pi < memoSlots; pi++ {
		ask("second round", pi, 0, per)
	}
	arena := memoArena(ev)
	ask("a policy past the slot cap", memoSlots, 1, per-1)
	if stored(ev, pols[0]) {
		t.Error("the least recently used policy survived a policy past the slot cap")
	}
	if got := memoArena(ev); unsafe.SliceData(got) != unsafe.SliceData(arena) || len(got) != len(arena) {
		t.Error("the policy past the slot cap grew the arena instead of reusing the evicted policy's room")
	}
	for pi := 1; pi < memoSlots; pi++ {
		ask("the survivors", pi, 0, per)
	}
	ask("the evicted policy", 0, 1, per-1)

	// A bonus stored to all n holds the whole budget and evicts every
	// policy. From then on full orders and policies take turns (a what-if
	// stream beside a portal) in the one n-position arena, which no
	// request allocates again.
	full := func(label string, bonus []float64) {
		t.Helper()
		if _, err := ev.DisparityCtx(t.Context(), bonus, 1); err != nil {
			t.Fatal(err)
		}
		checkMemoBudget(t, ev, label)
		for pi := 0; pi < memoSlots; pi++ {
			if stored(ev, pols[pi]) {
				t.Errorf("%s: policy %d survived a full order", label, pi)
			}
		}
	}
	fullA, fullB := []float64{1, 1, 1, 1}, []float64{1, 1, 1, 1.5}
	full("a full order", fullA)
	arena = memoArena(ev)
	if len(arena) != n {
		t.Fatalf("after a full order the arena holds %d positions, want n = %d", len(arena), n)
	}
	full("a second full order", fullB)
	if stored(ev, fullA) {
		t.Error("the second full order did not evict the first")
	}
	for round := 0; round < 2; round++ {
		for pi := 0; pi < 4; pi++ {
			ask("back from a full order", pi, 1, per-1)
		}
		full("a full order after the policies", fullA)
	}
	if got := memoArena(ev); unsafe.SliceData(got) != unsafe.SliceData(arena) {
		t.Error("full orders and policies in turn reallocated the arena")
	}
}

// TestMemoOverflowingBonusCounterfactual stores a short prefix of a
// finite bonus whose run offsets overflow to +Inf on rows with two
// protected attributes, so the merge declines it, then asks a
// counterfactual on it. Without finite offsets to look ranks up against,
// the stored prefix must not answer as a merged one: the counterfactual
// sorts the full order and answers what a fresh evaluator answers.
func TestMemoOverflowingBonusCounterfactual(t *testing.T) {
	ev := mergeEvaluator(t, 4000)
	d := ev.Dataset()
	n := d.N()
	bonus := []float64{1e308, 1e308, 1e308, 1e308}
	if _, err := ev.DisparityCtx(t.Context(), bonus, 0.1); err != nil {
		t.Fatal(err)
	}
	if !stored(ev, bonus) || ev.MergeCount() != 0 {
		t.Fatalf("disparity at k=0.1: stored %v after %d merges; want a stored prefix the merge declined", stored(ev, bonus), ev.MergeCount())
	}
	objs := []int{0, 17, n / 2, n - 1}
	r0, h0 := ev.RankingCount(), ev.MemoHitCount()
	got, err := ev.CounterfactualBatchCtx(t.Context(), bonus, 0.05, objs)
	if err != nil {
		t.Fatal(err)
	}
	if dr, dh := ev.RankingCount()-r0, ev.MemoHitCount()-h0; dr != 1 || dh != 0 {
		t.Errorf("counterfactual on the stored prefix: %d rankings, %d memo hits; want 1, 0", dr, dh)
	}
	want, err := NewEvaluator(d, rank.WeightedSum{Weights: synth.SchoolScoreWeights()}, rank.Beneficial).CounterfactualBatchCtx(t.Context(), bonus, 0.05, objs)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) { // NaN-safe: an overflowed row reads NaN deltas
		t.Errorf("counterfactuals differ from a fresh evaluator:\n got %v\nwant %v", got, want)
	}
}

// TestMemoHitHonorsCancellation checks that a dead context fails a
// request the memo could answer, before it reads the memo, and that the
// next live request still hits.
func TestMemoHitHonorsCancellation(t *testing.T) {
	ev := mergeEvaluator(t, 2000)
	bonus := []float64{2, 11, 10.5, 12.5}
	if _, err := ev.DisparityCtx(t.Context(), bonus, 1); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	h0 := ev.MemoHitCount()
	if _, err := ev.DisparityCtx(dead, bonus, 0.05); !errors.Is(err, context.Canceled) {
		t.Fatalf("DisparityCtx with a dead context on a stored bonus: %v, want context.Canceled", err)
	}
	if _, err := ev.CounterfactualBatchCtx(dead, bonus, 0.05, []int{1, 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CounterfactualBatchCtx with a dead context on a stored bonus: %v, want context.Canceled", err)
	}
	if got := ev.MemoHitCount() - h0; got != 0 {
		t.Errorf("canceled requests counted %d memo hits", got)
	}
	if _, err := ev.DisparityCtx(context.Background(), bonus, 0.05); err != nil {
		t.Fatal(err)
	}
	if got := ev.MemoHitCount() - h0; got != 1 {
		t.Errorf("live request after cancellation: %d memo hits, want 1", got)
	}
}

// TestMemoConcurrentAlternatingBonuses runs plans on more alternating
// bonus vectors than the memo has slots from several goroutines, with
// prefixes short and long, full orders and merge-route counterfactuals,
// so reads, evictions, arena packing and growth and extensions of the
// slots interleave; under -race it also checks the memo's locking. Every
// answer must equal the one a fresh evaluator gives, and the slots must
// stay disjoint windows of an arena of at most n positions.
func TestMemoConcurrentAlternatingBonuses(t *testing.T) {
	ev := mergeEvaluator(t, 3000)
	n := ev.Dataset().N()
	bonuses := append([][]float64{{2, 11, 10.5, 12.5}, {1, 0, 4, 9}}, memoPolicies(memoSlots)...)
	variants := [][]BatchQuery{
		{{Kind: BatchDisparity, K: 0.05}, {Kind: BatchExplain, K: 0.02}},
		{{Kind: BatchNDCG, K: 0.4}, {Kind: BatchDisparateImpact, K: 0.1}},
		{{Kind: BatchDisparity, K: 1}, {Kind: BatchNDCG, K: 0.9}},
		{{Kind: BatchCounterfactual, K: 0.05, Objects: []int{0, 17, n / 2, n - 1}}},
	}
	want := make([][][]BatchAnswer, len(bonuses))
	for bi, bonus := range bonuses {
		want[bi] = make([][]BatchAnswer, len(variants))
		for vi, qs := range variants {
			a, err := NewEvaluator(ev.Dataset(), rank.WeightedSum{Weights: synth.SchoolScoreWeights()}, rank.Beneficial).AnswerBatchCtx(t.Context(), bonus, qs)
			if err != nil {
				t.Fatal(err)
			}
			want[bi][vi] = a
		}
	}
	const workers, rounds = 4, 24
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				// Each bonus twice in a row: a worker cycling through more
				// bonuses than slots would otherwise find every one evicted.
				bi, vi := (w+r/2)%len(bonuses), rng.Intn(len(variants))
				got, err := ev.AnswerBatchCtx(t.Context(), bonuses[bi], variants[vi])
				if err == nil && !reflect.DeepEqual(got, want[bi][vi]) {
					err = fmt.Errorf("worker %d round %d: bonus %d variant %d differs from a fresh evaluator", w, r, bi, vi)
				}
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ev.MemoHitCount() == 0 {
		t.Error("no plan hit the memo")
	}
	checkMemoBudget(t, ev, "after the workers")
}
