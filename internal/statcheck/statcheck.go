// Package statcheck asserts that sampling estimators agree with exact
// (oracle) answers within tolerances *derived* from concentration bounds —
// never tuned by hand. Every tolerance carries its own derivation, and a
// failing assertion prints the full bound math so the failure is an
// argument, not a mystery.
//
// The core inequality is Hoeffding's: the empirical mean of ℓ independent
// samples of a [0,1]-valued quantity deviates from its expectation by more
// than ε = sqrt(ln(2/δ) / (2ℓ)) with probability at most δ. From it the
// package derives:
//
//   - Union(k): a bound that holds simultaneously for k estimates
//     (δ → δ/k, so ε = sqrt(ln(2k/δ) / (2ℓ)));
//   - ERM(ℓ, k): the empirical-risk-minimization bound — a candidate chosen
//     to minimize the *empirical* cost among k candidates has *true* cost
//     within 2ε_union of the true optimum (Theorem-2-style guarantee);
//   - Scale(r): the same bound for quantities ranging over [0, r] (e.g.
//     expected spread in node units, where r = n).
//
// Tests fix their sampling seeds, so each assertion evaluates one
// pre-drawn sample of the estimator's distribution: the suite is
// deterministic by construction, and the choice of seed was "unlucky" with
// probability at most δ (default 1e-6). A conformance test that passes once
// passes forever.
package statcheck

import (
	"fmt"
	"math"
	"testing"
)

// DefaultDelta is the failure probability δ each derived bound allows the
// fixed seed to have been unlucky with. At 1e-6, a suite of a thousand
// assertions mislabels a correct estimator with probability < 1e-3 at
// seed-selection time — and deterministically never thereafter.
const DefaultDelta = 1e-6

// Bound is a derived statistical tolerance: |estimate - exact| <= Eps holds
// with probability at least 1-Delta over the estimator's sampling.
type Bound struct {
	// Eps is the additive tolerance.
	Eps float64
	// Ell is the sample count the bound was derived from.
	Ell int
	// Delta is the allowed failure probability.
	Delta float64
	// Candidates is the union-bound multiplicity (1 = a single estimate).
	Candidates int
	// Derivation is the human-readable formula trail, printed on failure.
	Derivation string
}

// Hoeffding returns the additive bound for the mean of ell independent
// [0,1] samples at the default δ: ε = sqrt(ln(2/δ) / (2ℓ)).
func Hoeffding(ell int) Bound {
	return HoeffdingDelta(ell, DefaultDelta)
}

// HoeffdingDelta is Hoeffding at an explicit failure probability δ.
func HoeffdingDelta(ell int, delta float64) Bound {
	if ell < 1 {
		panic(fmt.Sprintf("statcheck: ell must be >= 1, got %d", ell))
	}
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("statcheck: delta must be in (0,1), got %v", delta))
	}
	eps := math.Sqrt(math.Log(2/delta) / (2 * float64(ell)))
	return Bound{
		Eps:        eps,
		Ell:        ell,
		Delta:      delta,
		Candidates: 1,
		Derivation: fmt.Sprintf("Hoeffding: eps = sqrt(ln(2/delta)/(2*ell)) = sqrt(ln(2/%.3g)/(2*%d)) = %.6g", delta, ell, eps),
	}
}

// Union tightens δ to δ/k so the bound holds simultaneously for k
// estimates (per-node reliability vectors, all candidate medians, every
// seed set a greedy might evaluate, ...).
func (b Bound) Union(k int) Bound {
	if k < 1 {
		panic(fmt.Sprintf("statcheck: union multiplicity must be >= 1, got %d", k))
	}
	eps := math.Sqrt(math.Log(2*float64(k)/b.Delta) / (2 * float64(b.Ell)))
	return Bound{
		Eps:        eps,
		Ell:        b.Ell,
		Delta:      b.Delta,
		Candidates: b.Candidates * k,
		Derivation: b.Derivation + fmt.Sprintf("; union over %d candidates: eps = sqrt(ln(2*%d/delta)/(2*ell)) = %.6g", k, k, eps),
	}
}

// Scale stretches the bound to quantities ranging over [0, r] (Hoeffding
// for range-r variables scales ε linearly), or composes derivation factors
// (e.g. the 2ε of an ERM argument).
func (b Bound) Scale(r float64) Bound {
	if r <= 0 {
		panic(fmt.Sprintf("statcheck: scale must be > 0, got %v", r))
	}
	nb := b
	nb.Eps = b.Eps * r
	nb.Derivation = b.Derivation + fmt.Sprintf("; scaled by range/factor %g: eps = %.6g", r, nb.Eps)
	return nb
}

// BottomKDelta returns the relative-error bound of the bottom-k
// cardinality estimator (k-1)/rho_k at failure probability δ. The k-th
// smallest of m uniform ranks is a Beta(k, m-k+1) order statistic;
// Chernoff bounds on the binomial count of ranks below (1±ε)k/m give
//
//	P[|est - m| > ε·m] <= 2·exp(-(k-1)·ε²/6)   for ε <= 1,
//
// so ε = sqrt(6·ln(2/δ)/(k-1)) fails with probability at most δ (Cohen
// 1997; the constant 6 absorbs both tails' denominators). Eps is
// *relative*: Scale by the exact cardinality for the additive form.
func BottomKDelta(k int, delta float64) Bound {
	if k < 2 {
		panic(fmt.Sprintf("statcheck: bottom-k needs k >= 2, got %d", k))
	}
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("statcheck: delta must be in (0,1), got %v", delta))
	}
	eps := math.Sqrt(6 * math.Log(2/delta) / float64(k-1))
	return Bound{
		Eps:        eps,
		Ell:        k,
		Delta:      delta,
		Candidates: 1,
		Derivation: fmt.Sprintf("bottom-k: relative eps = sqrt(6*ln(2/delta)/(k-1)) = sqrt(6*ln(2/%.3g)/%d) = %.6g", delta, k-1, eps),
	}
}

// Plus composes two bounds that must hold simultaneously: the tolerances
// add and so do the failure probabilities (a union bound over the two
// failure events). Used when an estimate carries error from two independent
// sources — e.g. world sampling (Hoeffding) plus sketch compression
// (bottom-k).
func (b Bound) Plus(o Bound) Bound {
	return Bound{
		Eps:        b.Eps + o.Eps,
		Ell:        b.Ell,
		Delta:      b.Delta + o.Delta,
		Candidates: b.Candidates + o.Candidates,
		Derivation: b.Derivation + "; plus [" + o.Derivation + "]: eps add, delta add (union of failure events)",
	}
}

// ERM returns the empirical-risk-minimization bound over k candidates: if
// Ĉ minimizes the empirical cost over a candidate class of size k that
// contains the true optimum C*, then with probability 1-δ
//
//	cost(Ĉ) <= cost(C*) + 2·eps_union(k)
//
// because uniform convergence (union bound over all k candidates) bounds
// both |ĉost(Ĉ)-cost(Ĉ)| and |ĉost(C*)-cost(C*)|, and ĉost(Ĉ) <= ĉost(C*)
// by minimality. This is exactly the shape of the paper's Theorem-2
// guarantee for the sampled Jaccard median.
func ERM(ell, candidates int) Bound {
	b := Hoeffding(ell).Union(candidates).Scale(2)
	b.Derivation += "; ERM: true cost of the empirical minimizer is within 2*eps_union of the true optimum"
	return b
}

// Close asserts |got - want| <= b.Eps, failing with the full derivation.
func Close(t testing.TB, name string, got, want float64, b Bound) {
	t.Helper()
	if diff := math.Abs(got - want); diff > b.Eps {
		t.Errorf("%s: estimate %.6g vs exact %.6g differs by %.6g > eps %.6g\n  (%s; delta=%.3g, ell=%d)",
			name, got, want, diff, b.Eps, b.Derivation, b.Delta, b.Ell)
	}
}

// AtMost asserts got <= limit + b.Eps — the one-sided form used for
// "estimator cost exceeds the optimum by at most the sampling slack".
func AtMost(t testing.TB, name string, got, limit float64, b Bound) {
	t.Helper()
	if got > limit+b.Eps {
		t.Errorf("%s: value %.6g exceeds limit %.6g + eps %.6g = %.6g\n  (%s; delta=%.3g, ell=%d)",
			name, got, limit, b.Eps, limit+b.Eps, b.Derivation, b.Delta, b.Ell)
	}
}

// AtLeast asserts got >= limit - b.Eps — the one-sided form used for
// approximation floors like the greedy (1-1/e) guarantee.
func AtLeast(t testing.TB, name string, got, limit float64, b Bound) {
	t.Helper()
	if got < limit-b.Eps {
		t.Errorf("%s: value %.6g falls below limit %.6g - eps %.6g = %.6g\n  (%s; delta=%.3g, ell=%d)",
			name, got, limit, b.Eps, limit-b.Eps, b.Derivation, b.Delta, b.Ell)
	}
}

// InMargin reports whether exact lies within eps of a decision threshold.
// Threshold queries (reliability search membership) can only be asserted
// for nodes whose exact probability clears the threshold by more than the
// sampling tolerance; callers skip the nodes InMargin reports true for.
func InMargin(exact, threshold float64, b Bound) bool {
	return math.Abs(exact-threshold) <= b.Eps
}

// Numeric asserts two float64s agree up to accumulated round-off from ops
// floating-point operations: tolerance = ops · 2⁻⁵² · max(1, |want|). This
// is for *deterministic* recomputations (two code paths summing the same
// terms), where the allowance is structural — machine epsilon times the
// operation count — not a tuned constant.
func Numeric(t testing.TB, name string, got, want float64, ops int) {
	t.Helper()
	if ops < 1 {
		ops = 1
	}
	tol := float64(ops) * 0x1p-52 * math.Max(1, math.Abs(want))
	if diff := math.Abs(got - want); diff > tol {
		t.Errorf("%s: %.17g vs %.17g differs by %.3g > round-off tolerance %.3g (%d ops * 2^-52 * scale)",
			name, got, want, diff, tol, ops)
	}
}
