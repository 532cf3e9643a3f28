//go:build amd64 && !purego

package tensor

import (
	"testing"

	"repro/internal/hw"
)

func TestDetectFMAConsistent(t *testing.T) {
	// Re-querying the shared feature record must agree with the gate
	// captured at package init (hw.Detect memoizes one CPUID probe).
	if hw.Detect().SIMD() != haveFMA {
		t.Fatal("hw.Detect().SIMD() disagrees with the kernel dispatch gate")
	}
}
