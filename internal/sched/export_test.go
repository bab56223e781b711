package sched

import (
	"math/rand"

	"hetsched/internal/model"
)

// Hooks for the external tests in this directory, which import
// packages that import sched (replay_test.go).

// FuzzMatrix is fuzzMatrix.
var FuzzMatrix = fuzzMatrix

// TieFamilyMatrices draws one P = n instance of every tie family, with
// the family names in the same order.
func TieFamilyMatrices(rng *rand.Rand, n int) ([]string, []*model.Matrix) {
	var names []string
	var ms []*model.Matrix
	for _, f := range tieFamilies {
		names = append(names, f.name)
		ms = append(ms, f.draw(rng, n))
	}
	return names, ms
}
