package check

// maxShrinkEvals bounds the number of predicate evaluations one shrink may
// spend. Each evaluation replays the candidate trace on every design, so the
// cap keeps a failing soak run from stalling; the bound is generous for the
// ≤256-op traces the generator emits.
const maxShrinkEvals = 200

// shrinkSlice reduces a failing slice to a smaller one that still fails,
// using the caller's predicate (fails must return true for items itself).
//
// Two phases, both deterministic:
//
//  1. Binary-search the minimal failing *prefix* — hierarchy state is
//     cumulative, so a failure at element k usually only needs elements ≤ k.
//  2. ddmin-lite: repeatedly try deleting chunks (halving the chunk size
//     down to single elements) and keep any deletion that still fails.
//
// The result is not guaranteed globally minimal, only locally: no single
// remaining element can be removed without losing the failure (unless the
// eval cap was hit first). The element type is opaque: the harness shrinks
// core-tagged schedules, and its tests shrink plain op traces.
func shrinkSlice[T any](items []T, fails func([]T) bool) []T {
	if len(items) == 0 {
		return items
	}
	evals := 0
	check := func(c []T) bool {
		if evals >= maxShrinkEvals {
			return false
		}
		evals++
		return fails(c)
	}

	// Phase 1: minimal failing prefix. Invariant: prefix of length hi fails.
	lo, hi := 1, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if check(items[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cur := append([]T(nil), items[:hi]...)

	// Phase 2: chunked deletion. Start with half-trace chunks and halve on
	// every pass that removes nothing.
	for chunk := len(cur) / 2; chunk >= 1; {
		removed := false
		for start := 0; start+chunk <= len(cur); {
			cand := make([]T, 0, len(cur)-chunk)
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[start+chunk:]...)
			if len(cand) > 0 && check(cand) {
				cur = cand
				removed = true
				// Do not advance start: the next chunk slid into place.
			} else {
				start += chunk
			}
		}
		if !removed {
			chunk /= 2
		}
	}
	return cur
}

// ShrinkMCOps reduces a failing core-tagged schedule to a locally-minimal
// one that still fails the caller's predicate. Deleting an MCOp removes that
// op from its core's stream while preserving every stream's internal program
// order, so the shrunk witness is always a valid (smaller) schedule.
func ShrinkMCOps(ops []MCOp, fails func([]MCOp) bool) []MCOp {
	return shrinkSlice(ops, fails)
}
