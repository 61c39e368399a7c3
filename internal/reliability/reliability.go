// Package reliability implements classical reliability queries over
// probabilistic graphs: s–t reliability (the probability that t is reachable
// from s in a random possible world — #P-hard exactly, Valiant 1979) and
// reliability search (all nodes reachable from a source set with probability
// at least a threshold, Khan et al., EDBT 2014).
//
// These are the related queries of the paper's §7 and the machinery behind
// the Theorem-1 reduction, which this library exercises numerically in its
// test suite.
package reliability

import (
	"context"
	"fmt"

	"soi/internal/checkpoint"
	"soi/internal/graph"
)

// ST estimates rel(g, s, t): the probability that t is reachable from s.
// It samples `samples` lazy cascades from s.
func ST(g *graph.Graph, s, t graph.NodeID, samples int, seed uint64) (float64, error) {
	probs, err := FromSource(g, []graph.NodeID{s}, samples, seed)
	if err != nil {
		return 0, err
	}
	return probs[t], nil
}

// FromSource estimates, for every node v, the probability that v is
// reachable from the source set. The result is indexed by node id. It is
// FromSourceCtx under context.Background().
func FromSource(g *graph.Graph, sources []graph.NodeID, samples int, seed uint64) ([]float64, error) {
	return FromSourceCtx(context.Background(), g, sources, samples, seed)
}

// FromSourceCtx is FromSource with cooperative cancellation: ctx is checked
// between cascade samples, so a canceled context returns ctx.Err() promptly.
// It is FromSourceBudget with a zero Budget.
func FromSourceCtx(ctx context.Context, g *graph.Graph, sources []graph.NodeID, samples int, seed uint64) ([]float64, error) {
	probs, _, err := FromSourceBudget(ctx, g, sources, samples, seed, checkpoint.Budget{})
	return probs, err
}

// Search returns the nodes reachable from the source set with estimated
// probability >= threshold, sorted by id (the reliability-search query).
// It is SearchCtx under context.Background().
func Search(g *graph.Graph, sources []graph.NodeID, threshold float64, samples int, seed uint64) ([]graph.NodeID, error) {
	return SearchCtx(context.Background(), g, sources, threshold, samples, seed)
}

// SearchCtx is Search with cooperative cancellation: ctx is checked between
// the underlying cascade samples. It is SearchBudget with a zero Budget.
func SearchCtx(ctx context.Context, g *graph.Graph, sources []graph.NodeID, threshold float64, samples int, seed uint64) ([]graph.NodeID, error) {
	nodes, _, err := SearchBudget(ctx, g, sources, threshold, samples, seed, checkpoint.Budget{})
	return nodes, err
}

func validateFromSource(g *graph.Graph, sources []graph.NodeID, samples int) error {
	if samples < 1 {
		return fmt.Errorf("reliability: samples must be >= 1, got %d", samples)
	}
	if len(sources) == 0 {
		return fmt.Errorf("reliability: empty source set")
	}
	for _, s := range sources {
		if s < 0 || int(s) >= g.NumNodes() {
			return outOfRange(s)
		}
	}
	return nil
}

func validateThreshold(threshold float64) error {
	if threshold <= 0 || threshold > 1 {
		return fmt.Errorf("reliability: threshold %v outside (0,1]", threshold)
	}
	return nil
}

func outOfRange(v graph.NodeID) error {
	return fmt.Errorf("reliability: node %d out of range", v)
}

// AugmentForReduction builds the graph G' of the paper's Theorem-1 proof:
// a copy of g with an additional arc of probability 1 from t to every other
// node. Computing the expected costs ρ_{G',s}(V) and ρ_{G',s}(V \ {t})
// recovers rel(g, s, t); see RelFromCosts.
func AugmentForReduction(g *graph.Graph, t graph.NodeID) (*graph.Graph, error) {
	if t < 0 || int(t) >= g.NumNodes() {
		return nil, fmt.Errorf("reliability: t=%d out of range", t)
	}
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range g.Edges() {
		b.AddEdge(e.From, e.To, e.Prob)
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if v != t {
			b.AddEdge(t, v, 1)
		}
	}
	return b.Build()
}

// RelFromCosts inverts the Theorem-1 identity: given n = |V| and the
// expected costs ρ(H1), ρ(H2) for H1 = V and H2 = V \ {t} measured on the
// augmented graph, it returns rel(g, s, t):
//
//	rel = (1 - n·ρ(H1) + (n-1)·ρ(H2)) / (2 - 1/n)
//
// Note: the paper's printed formula carries an extra -1/n in the numerator;
// re-deriving from its own intermediate identity
// n·ρ(H1) - (n-1)·ρ(H2) = q·(2 - 1/n) - 1 + 1/n (with q the unreliability)
// gives the expression above, which the numerical cross-check in this
// package's tests confirms.
func RelFromCosts(n int, rhoH1, rhoH2 float64) float64 {
	fn := float64(n)
	return (1 - fn*rhoH1 + (fn-1)*rhoH2) / (2 - 1/fn)
}
