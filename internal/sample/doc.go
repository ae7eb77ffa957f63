// Package sample provides the deterministic sampling machinery behind DCA.
//
// Algorithm 1 of the paper draws "a random sample of sample size from O" at
// every descent step; Algorithm 2 consumes "the next sample in O",
// i.e. walks the dataset in randomized epochs. Both are provided here with
// explicit seeding so every experiment in the repository is reproducible.
//
// Every draw reads one stream: math/rand's, seeded as rand.NewSource(seed)
// and continued bit for bit by the package's own copy of its generator
// (source.go), which the draw loops call directly instead of through the
// rand.Source interface. Sampler.Rand wraps the same stream.
//
// A train draws through a Schedule: its uniform draws, then its epoch
// draws, in step order. The schedule reads only the seeded stream, so
// while (trains in flight) × 2 ≤ GOMAXPROCS a helper goroutine draws it
// ahead of the descent into a ring of chunks sized in indices (12 chunks
// of 8 samples at k = 500), deep enough to bank lead for the epoch
// permutation; otherwise the train fills the same chunks inline. Both
// give every step the same draw.
// Acquire and Release take the sampler's generator, displacement table,
// epoch permutation and ring from a package sync.Pool and return them,
// so a warm train allocates nothing sized by the population.
package sample
