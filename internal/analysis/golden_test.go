package analysis_test

import (
	"testing"

	"parapll/internal/analysis"
	"parapll/internal/analysis/analysistest"
)

func TestMmapKeepAlive(t *testing.T) {
	analysistest.Run(t, "testdata/mmapkeepalive", analysis.MmapKeepAlive, "test/mmaptest")
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, "testdata/atomicfield", analysis.AtomicField, "test/atomictest")
}
