package validate

import (
	"math/rand"

	"wavescalar/internal/area"
	"wavescalar/internal/workload"
)

// mix hashes a tuple of values with splitmix64 finalization: the
// harness's one source of derived seeds and variant choices.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// CaseSeed derives the per-case seed for index i of a fuzzing run rooted
// at root — the value a "s:<seed>" repro token carries, so one case
// replays without regenerating the whole run.
func CaseSeed(root uint64, i int) uint64 {
	return mix(root, 0xCA5E, uint64(i))
}

// GenerateCase draws one case from a seed: a machine inside (and a
// little beyond the edges of) the paper's design ranges, any workload
// the resolver accepts, a small scale and a thread count. The draw is a
// pure function of the seed — the contract that makes every failure
// replayable from one integer.
//
// Scales stay at or below workload.Tiny: the harness buys coverage with
// many small cases, not few large ones, and the shrinker's job is easier
// when the starting point is already small.
func GenerateCase(seed uint64) Case {
	rng := rand.New(rand.NewSource(int64(seed)))
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }
	c := Case{
		Seed: seed,
		Arch: area.Params{
			Clusters: pick(1, 1, 1, 2, 4),
			Domains:  pick(1, 2, 4),
			PEs:      pick(2, 4, 8),
			Virt:     pick(16, 32, 64, 128),
			Match:    pick(16, 32, 64, 128),
			L1KB:     pick(4, 8, 16),
			L2MB:     pick(0, 1),
		},
		K:         pick(1, 2, 4, 8),
		Workload:  workload.RandomName(rng),
		Iters:     pick(4, 8, 16, 24),
		Footprint: pick(512, 1024, 2048),
		Threads:   pick(1, 1, 2, 4),
	}
	return c
}
