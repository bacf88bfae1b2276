package conformance

import (
	"testing"

	"tracerebase/internal/synth"
)

// TestTierTransparency runs the tiered-backend differential oracle at test
// scale: cache-off, cold tiered, warm-memory, and warm-disk sweeps of
// the same traces must render byte-identically, with both warm runs
// resolving every cell without a single compute-function invocation.
// (The -selftest path runs the same oracle at larger scale.)
func TestTierTransparency(t *testing.T) {
	profiles := []synth.Profile{
		synth.PublicProfile(synth.ComputeInt, 3),
		synth.PublicProfile(synth.Server, 5),
	}
	if err := CheckTierTransparency(profiles, 1500, 300); err != nil {
		t.Fatal(err)
	}
}
