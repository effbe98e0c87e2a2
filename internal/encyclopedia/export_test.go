package encyclopedia

import "testing"

// CountFallbacks makes ReadJSONL add to *n each line it hands to
// encoding/json, until t ends.
func CountFallbacks(t testing.TB, n *int) {
	testHookFallback = func() { *n++ }
	t.Cleanup(func() { testHookFallback = nil })
}
