// Package exportfallback imports a standard-library package that nothing
// else in the module imports, so a loader primed by a tree load has not
// listed it and must resolve it through a go list call of its own.
package exportfallback

import "container/ring"

// Size reports the length of a fresh ring of n elements.
func Size(n int) int { return ring.New(n).Len() }
