package decomp

import (
	"fmt"
	"math"
)

// This file implements cost-weighted decompositions. The paper's
// Figure 13 metric is per-processor *busy time*, not point count: when
// per-point cost varies across the grid (boundary columns, measured
// per-column rates), equal-width blocks leave the heaviest rank gating
// every step. WeightedAxial/WeightedRadial take a per-index cost
// profile and return contiguous blocks that minimize the maximum block
// cost, subject to the same minimum block widths as the uniform split.
// A uniform (or nil) profile reproduces split exactly, and the weighted
// optimum is never worse than the uniform split's maximum cost —
// properties the fuzzers in weighted_test.go pin.

// validWeights rejects profiles the min-max search cannot order:
// negative, NaN, or infinite entries, and totals that overflow.
func validWeights(n int, weights []float64, what string) error {
	if len(weights) != n {
		return fmt.Errorf("decomp: %d weights for %d %s", len(weights), n, what)
	}
	total := 0.0
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("decomp: weight %g at %s %d (weights must be finite and nonnegative)", w, what, i)
		}
		total += w
	}
	if math.IsInf(total, 0) {
		return fmt.Errorf("decomp: %s weights overflow when summed", what)
	}
	return nil
}

// uniformWeights reports whether every entry equals the first — the
// degenerate profile on which the balanced point-count split is already
// cost-optimal.
func uniformWeights(weights []float64) bool {
	for _, w := range weights[1:] {
		if w != weights[0] {
			return false
		}
	}
	return true
}

// reachStep advances the reachability dynamic program by one block
// level: cur[j] is set when some cut position i reachable at the
// previous level (prev[i]) opens a block [i, j) at least min wide whose
// summed weight is at most c. pre is the weight prefix-sum array (len
// n+1) and cnt a scratch array (len n+2): prefix counts of reachable
// positions turn "any reachable i in [lb, j-min]" into one subtraction,
// and lb only moves forward with j, so a level costs O(n). (Greedy
// maximal extension is wrong here — the minimum width can force an
// overweight block that a shorter earlier cut would have avoided.)
func reachStep(pre []float64, prev, cur []bool, cnt []int, min int, c float64) {
	n := len(prev) - 1
	for i := 0; i <= n; i++ {
		cnt[i+1] = cnt[i]
		if prev[i] {
			cnt[i+1]++
		}
	}
	lb := 0
	for j := 0; j <= n; j++ {
		cur[j] = false
		if j < min {
			continue
		}
		for pre[lb] < pre[j]-c {
			lb++
		}
		if hi := j - min; hi >= lb && cnt[hi+1]-cnt[lb] > 0 {
			cur[j] = true
		}
	}
}

// feasible reports whether n indices can be cut into p contiguous
// blocks, each at least min wide and each with summed weight at most c.
func feasible(pre []float64, n, p, min int, c float64) bool {
	prev := make([]bool, n+1)
	cur := make([]bool, n+1)
	cnt := make([]int, n+2)
	prev[0] = true
	for r := 1; r <= p; r++ {
		reachStep(pre, prev, cur, cnt, min, c)
		prev, cur = cur, prev
	}
	return prev[n]
}

// reconstruct builds the starts array of one feasible partition at cost
// bound c, walking the reachability levels backward and giving each
// block, back to front, the widest extent the bound allows — which
// keeps near-uniform profiles near-uniformly wide.
func reconstruct(pre []float64, n, p, min int, c float64) []int {
	reach := make([][]bool, p+1)
	reach[0] = make([]bool, n+1)
	reach[0][0] = true
	cnt := make([]int, n+2)
	for r := 1; r <= p; r++ {
		reach[r] = make([]bool, n+1)
		reachStep(pre, reach[r-1], reach[r], cnt, min, c)
	}
	starts := make([]int, p+1)
	starts[p] = n
	j := n
	for r := p; r >= 1; r-- {
		for i := 0; i <= j-min; i++ {
			if reach[r-1][i] && pre[j]-pre[i] <= c {
				j = i
				break
			}
		}
		starts[r-1] = j
	}
	return starts
}

// weightedSplit builds contiguous blocks of n indices over p ranks
// minimizing the maximum block cost under weights, each block at least
// min wide. nil or uniform weights delegate to the balanced split.
func weightedSplit(n, p, min int, weights []float64, what string) (*Decomposition, error) {
	if weights == nil {
		return split(n, p, min, what)
	}
	if p < 1 {
		return nil, fmt.Errorf("decomp: need at least one rank, got %d", p)
	}
	if err := validWeights(n, weights, what); err != nil {
		return nil, err
	}
	if n/p < min {
		return nil, fmt.Errorf("decomp: %d %s over %d ranks leaves blocks shorter than %d", n, what, p, min)
	}
	if uniformWeights(weights) {
		return split(n, p, min, what)
	}
	pre := make([]float64, n+1)
	for i, w := range weights {
		pre[i+1] = pre[i] + w
	}
	// The uniform split is a feasible witness, so its maximum block
	// cost is both the search ceiling and the guarantee that weighting
	// never balances worse than point counts.
	uni, err := split(n, p, min, what)
	if err != nil {
		return nil, err
	}
	uniMax := 0.0
	for r := 0; r < p; r++ {
		if c := pre[uni.starts[r+1]] - pre[uni.starts[r]]; c > uniMax {
			uniMax = c
		}
	}
	lo, hi := 0.0, uniMax
	if feasible(pre, n, p, min, lo) {
		hi = lo
	}
	eps := 1e-12 * (1 + pre[n])
	for it := 0; it < 64 && hi-lo > eps; it++ {
		mid := lo + (hi-lo)/2
		if feasible(pre, n, p, min, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return &Decomposition{Nx: n, P: p, starts: reconstruct(pre, n, p, min, hi)}, nil
}

// WeightedAxial splits nx columns over p ranks into contiguous blocks
// that minimize the maximum block cost under the per-column profile.
// nil or uniform weights reproduce Axial exactly; any profile balances
// at least as well (by maximum block cost) as the uniform split.
func WeightedAxial(nx, p int, weights []float64) (*Decomposition, error) {
	return weightedSplit(nx, p, MinWidth, weights, "columns")
}

// WeightedRadial splits nr rows over p ranks the same way under a
// per-row profile.
func WeightedRadial(nr, p int, weights []float64) (*Decomposition, error) {
	return weightedSplit(nr, p, MinHeight, weights, "rows")
}

// WeightedGrid2D builds a px-by-pr rank grid whose axial and radial
// cuts are cost-weighted. The per-point cost model is separable —
// colWeights[i]*rowWeights[j] — so the two directions balance
// independently: the maximum block cost is (max axial block cost) ×
// (max radial block cost), each minimized by its 1-D weighted split.
// nil profiles fall back to the uniform split in that direction.
func WeightedGrid2D(nx, nr, px, pr int, colWeights, rowWeights []float64) (*Grid2D, error) {
	dx, err := WeightedAxial(nx, px, colWeights)
	if err != nil {
		return nil, err
	}
	dr, err := WeightedRadial(nr, pr, rowWeights)
	if err != nil {
		return nil, err
	}
	return &Grid2D{Nx: nx, Nr: nr, Px: px, Pr: pr, X: dx, R: dr}, nil
}

// BlockCosts returns the per-rank summed weights; nil weights mean unit
// cost per index, reproducing Widths.
func (d *Decomposition) BlockCosts(weights []float64) []float64 {
	costs := make([]float64, d.P)
	for r := 0; r < d.P; r++ {
		i0, w := d.Range(r)
		if weights == nil {
			costs[r] = float64(w)
			continue
		}
		for i := i0; i < i0+w; i++ {
			costs[r] += weights[i]
		}
	}
	return costs
}

// CostImbalance returns (max-min)/mean of the per-rank block costs
// under the given profile. Imbalance is the special case of a uniform
// profile: point counts stand in for cost only when every point costs
// the same, which is exactly what Figure 13's busy times refute on
// real grids.
func (d *Decomposition) CostImbalance(weights []float64) float64 {
	return relSpread(d.BlockCosts(weights))
}

// CostImbalance returns (max-min)/mean of the per-rank block costs
// under the separable profile colWeights[i]*rowWeights[j] (nil = unit
// cost in that direction).
func (d *Grid2D) CostImbalance(colWeights, rowWeights []float64) float64 {
	cx := d.X.BlockCosts(colWeights)
	cr := d.R.BlockCosts(rowWeights)
	costs := make([]float64, 0, d.Ranks())
	for _, rc := range cr {
		for _, xc := range cx {
			costs = append(costs, xc*rc)
		}
	}
	return relSpread(costs)
}

// relSpread is (max-min)/mean, the load-balance metric of Figure 13
// (duplicated from internal/stats to keep decomp dependency-free).
func relSpread(v []float64) float64 {
	mn, mx, sum := v[0], v[0], 0.0
	for _, x := range v {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
		sum += x
	}
	return (mx - mn) / (sum / float64(len(v)))
}
