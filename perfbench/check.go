package main

import (
	"fmt"
	"math"
	"sort"

	"innsearch"
)

// probTolerance bounds the disagreement between the engine's
// meaningfulness probabilities and the independent recomputation. The two
// evaluate the same formulas in a different order, so they agree to a few
// ulps; anything larger is a wrong answer.
const probTolerance = 1e-12

// shownView is what the session's Observer reports for one view.
type shownView struct {
	ids      []int // IDs of the rows in play
	skipped  bool
	weight   float64
	pickedID []int
}

// trail records a session through its Observer: the views of each major
// iteration, closed when OnMajorIteration fires.
type trail struct {
	majors  [][]shownView
	current []shownView
}

func (t *trail) observer() innsearch.Observer {
	return innsearch.Observer{
		OnProfile: func(p *innsearch.VisualProfile, d innsearch.Decision, picked []int) {
			t.current = append(t.current, shownView{ids: p.IDs, skipped: d.Skip, weight: d.Weight, pickedID: picked})
		},
		OnMajorIteration: func(int, map[int]float64) {
			t.majors = append(t.majors, t.current)
			t.current = nil
		},
	}
}

// checkSession verifies one completed session against computations made
// independently of the engine:
//
//   - the meaningfulness probabilities, recomputed from the reported
//     picks with the Bernoulli model of the paper's §3;
//   - the neighbours, which must be the top-s rows by probability in
//     non-increasing order;
//   - the query row, which must be among the picked rows of every
//     answered view, since R(τ, Q) contains the query's own cell
//     (Definition 2.2).
func checkSession(res *innsearch.Result, tr *trail, allIDs []int, queryID, support int) error {
	probs, err := bernoulliProbabilities(tr.majors, allIDs)
	if err != nil {
		return err
	}
	if len(probs) != len(res.Probabilities) {
		return fmt.Errorf("probabilities for %d rows, recomputed %d", len(res.Probabilities), len(probs))
	}
	for id, p := range probs {
		got, ok := res.Probabilities[id]
		if !ok {
			return fmt.Errorf("row %d missing from the probabilities", id)
		}
		if math.Abs(got-p) > probTolerance {
			return fmt.Errorf("row %d: probability %.17g, recomputed %.17g", id, got, p)
		}
	}
	if err := checkNeighbors(res.Neighbors, res.Probabilities, support); err != nil {
		return err
	}
	for m, views := range tr.majors {
		for v, sv := range views {
			if sv.skipped {
				continue
			}
			if !containsInt(sv.pickedID, queryID) {
				return fmt.Errorf("major %d view %d: the query row %d is not among the %d picked rows", m+1, v+1, queryID, len(sv.pickedID))
			}
		}
	}
	return nil
}

// bernoulliProbabilities recomputes the per-row meaningfulness
// probabilities of a session from its picks. In each major iteration
// with N rows in play, view i picked nᵢ rows with weight wᵢ; under the
// null model row j's weighted pick count Y has E[Y] = Σ wᵢnᵢ/N and
// var(Y) = Σ wᵢ²(nᵢ/N)(1 − nᵢ/N), and its probability is
// P = max(2Φ(M) − 1, 0) with M = (count − E[Y]) / √var(Y). Each row's
// probability is the mean over the iterations it took part in. After an
// iteration in which anything was picked, rows never picked leave the
// data, provided at least two remain.
func bernoulliProbabilities(majors [][]shownView, allIDs []int) (map[int]float64, error) {
	inPlay := append([]int(nil), allIDs...)
	sum := make(map[int]float64)
	iters := make(map[int]int)
	for m, views := range majors {
		if len(views) > 0 && !sameIDSet(views[0].ids, inPlay) {
			return nil, fmt.Errorf("major %d shows %d rows, pruning predicts %d", m+1, len(views[0].ids), len(inPlay))
		}
		n := float64(len(inPlay))
		count := make(map[int]float64, len(inPlay))
		var ey, vy float64
		picked := 0
		for _, v := range views {
			w := v.weight
			if w == 0 {
				w = 1
			}
			if v.skipped {
				w = 1
			}
			frac := float64(len(v.pickedID)) / n
			ey += w * frac
			vy += w * w * frac * (1 - frac)
			for _, id := range v.pickedID {
				count[id] += w
			}
			picked += len(v.pickedID)
		}
		for _, id := range inPlay {
			p := 0.0
			if vy > 0 {
				z := (count[id] - ey) / math.Sqrt(vy)
				p = math.Max(math.Erfc(-z/math.Sqrt2)-1, 0) // 2Φ(z) − 1
			}
			sum[id] += p
			iters[id]++
		}
		if picked > 0 {
			var keep []int
			for _, id := range inPlay {
				if count[id] > 0 {
					keep = append(keep, id)
				}
			}
			if len(keep) >= 2 {
				inPlay = keep
			}
		}
	}
	out := make(map[int]float64, len(sum))
	for id, s := range sum {
		out[id] = s / float64(iters[id])
	}
	return out, nil
}

// checkNeighbors requires the neighbours to be the top min(s, rows) rows
// by probability, in non-increasing order, each carrying its own
// probability.
func checkNeighbors(nbs []innsearch.Neighbor, probs map[int]float64, support int) error {
	want := min(support, len(probs))
	if len(nbs) != want {
		return fmt.Errorf("%d neighbours, want %d", len(nbs), want)
	}
	in := make(map[int]bool, len(nbs))
	for i, nb := range nbs {
		p, ok := probs[nb.ID]
		if !ok || p != nb.Probability {
			return fmt.Errorf("neighbour %d (row %d) carries probability %v, the row has %v", i, nb.ID, nb.Probability, p)
		}
		if i > 0 && nb.Probability > nbs[i-1].Probability {
			return fmt.Errorf("neighbour %d (row %d) ranks above a lower probability", i, nb.ID)
		}
		if in[nb.ID] {
			return fmt.Errorf("row %d listed twice among the neighbours", nb.ID)
		}
		in[nb.ID] = true
	}
	if len(nbs) == 0 {
		return nil
	}
	floor := nbs[len(nbs)-1].Probability
	for id, p := range probs {
		if !in[id] && p > floor {
			return fmt.Errorf("row %d (probability %v) is left out of the neighbours above row %d (%v)", id, p, nbs[len(nbs)-1].ID, floor)
		}
	}
	return nil
}

func sameIDSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]int(nil), a...)
	y := append([]int(nil), b...)
	sort.Ints(x)
	sort.Ints(y)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func neighborIDs(res *innsearch.Result) []int {
	out := make([]int, len(res.Neighbors))
	for i, nb := range res.Neighbors {
		out[i] = nb.ID
	}
	return out
}
