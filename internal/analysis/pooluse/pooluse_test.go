package pooluse_test

import (
	"testing"

	"parallelagg/internal/analysis/analysistest"
	"parallelagg/internal/analysis/pooluse"
)

func TestPooluse(t *testing.T) {
	analysistest.Run(t, "testdata", pooluse.Analyzer,
		"parallelagg/internal/live",
		"parallelagg/internal/aggtable",
		"parallelagg/other",
	)
}
