package maporder_test

import (
	"testing"

	"parallelagg/internal/analysis/analysistest"
	"parallelagg/internal/analysis/maporder"
)

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", maporder.Analyzer,
		"parallelagg/internal/core",     // in scope: wants diagnostics
		"parallelagg/internal/aggtable", // in scope: sorted drain clean, unsorted flagged
		"parallelagg/internal/workload", // out of scope: must be clean
	)
}
