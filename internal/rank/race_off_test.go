//go:build !race

package rank

// raceEnabled reports whether the race detector is active. The
// allocation pin skips under it: the race runtime deliberately drops
// sync.Pool items, so the pooled radix scratch is re-made on some calls.
const raceEnabled = false
