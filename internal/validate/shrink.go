package validate

// Shrink greedily minimizes a failing case: it tries simpler candidates
// (fewer threads, smaller scale, smaller machine)
// and keeps any candidate that still fails with the same kind, repeating
// until a full pass accepts nothing or the budget of Check invocations
// runs out. The result is the smallest case this harness knows how to
// reach — typically a one-cluster, one-thread, few-iteration repro that
// simulates in milliseconds.
//
// Candidates that fail differently (another kind, or an infrastructure
// error) are rejected: shrinking narrows one bug, it never wanders to
// a different one.
func (ck *Checker) Shrink(c Case, kind string, budget int) Case {
	if budget <= 0 {
		budget = 150
	}
	stillFails := func(cand Case) bool {
		if budget <= 0 {
			return false
		}
		budget--
		f, err := ck.Check(cand)
		return err == nil && f != nil && f.Kind == kind
	}
	for {
		improved := false
		for _, cand := range shrinkCandidates(c) {
			if stillFails(cand) {
				c = cand
				improved = true
				break // restart candidate generation from the smaller case
			}
		}
		if !improved || budget <= 0 {
			return c
		}
	}
}

// shrinkCandidates proposes strictly simpler variants of c, cheapest
// wins first: dropping threads prunes the most simulation time, machine
// shrinking comes last.
func shrinkCandidates(c Case) []Case {
	var out []Case
	add := func(mut func(*Case)) {
		cand := c
		mut(&cand)
		out = append(out, cand)
	}

	if c.Threads > 1 {
		add(func(n *Case) { n.Threads = 1 })
		if c.Threads > 2 {
			add(func(n *Case) { n.Threads = c.Threads / 2 })
		}
	}
	if c.Iters > 2 {
		add(func(n *Case) { n.Iters = max(2, c.Iters/2) })
	}
	if c.Footprint > 256 {
		add(func(n *Case) { n.Footprint = max(256, c.Footprint/2) })
	}
	if c.Arch.Clusters > 1 {
		add(func(n *Case) { n.Arch.Clusters = 1 })
	}
	if c.Arch.Domains > 1 {
		add(func(n *Case) { n.Arch.Domains = c.Arch.Domains / 2 })
	}
	if c.Arch.PEs > 2 {
		add(func(n *Case) { n.Arch.PEs = max(2, c.Arch.PEs/2) })
	}
	if c.Arch.Virt > 8 {
		add(func(n *Case) { n.Arch.Virt = c.Arch.Virt / 2 })
	}
	if c.Arch.Match > 4 {
		add(func(n *Case) { n.Arch.Match = c.Arch.Match / 2 })
	}
	if c.Arch.L1KB > 1 {
		add(func(n *Case) { n.Arch.L1KB = c.Arch.L1KB / 2 })
	}
	if c.Arch.L2MB > 0 {
		add(func(n *Case) { n.Arch.L2MB = 0 })
	}
	if c.K > 1 {
		add(func(n *Case) { n.K = c.K / 2 })
	}
	return out
}
