package core

import "blockhead/internal/sim/pool"

// This file runs an experiment's independent sub-simulations ("parts") and
// merges their results deterministically in part order.
//
// A part is one device stack with its own flash chip, workload source, and
// telemetry session: no part touches another's LUNs, free-block pool, or
// L2P map, so parts may run side by side. Each part gets a private session
// whose AttrSink numbers measured IOs from 1; after every part has run,
// part k's exemplar sequence numbers are rebased by the total measured-IO
// count of parts 0..k-1, which is exactly the numbering one shared sink
// would have handed out running the parts in order. Aggregates need no
// correction: a from-zero private sink yields the same per-part delta.
//
// The fault RNG needs no correction either: each part owns its injector,
// seeded from cfg.Seed and consumed in the part's own virtual-time order.

// partTask is one schedulable part: run executes it under a part-scoped
// Config; rebase, if non-nil, shifts the result's measured-IO sequence
// numbers (delta = measured IOs in preceding parts).
type partTask struct {
	run    func(cfg Config) error
	rebase func(delta uint64)
}

// seqRebaser is implemented by part results that expose measured-IO
// sequence numbers (exemplar sections and their -explain hints).
type seqRebaser interface {
	rebaseSeqs(delta uint64)
}

// part adapts a typed stack function (e.g. E4Conventional) into a partTask
// that stores its result in *out and knows how to rebase it.
func part[T any](out *T, f func(Config) (T, error)) partTask {
	return partTask{
		run: func(cfg Config) error {
			r, err := f(cfg)
			if err != nil {
				return err
			}
			*out = r
			return nil
		},
		rebase: func(delta uint64) {
			if r, ok := any(out).(seqRebaser); ok {
				r.rebaseSeqs(delta)
			}
		},
	}
}

// runParts executes the parts on a pool of cfg.Shards workers (part i on
// worker i mod width) and returns the first failed part's error in part
// order. The report is the same at every width. Probe and explain runs run
// the parts in order on the caller's session instead: a live probe hangs
// one metric registry and flight recorder off the run, and the explain
// narrator must see the whole run's numbering on one sink.
func runParts(cfg Config, parts ...partTask) error {
	if cfg.Probe != nil || cfg.ExplainSeq != 0 {
		for _, p := range parts {
			if err := p.run(cfg); err != nil {
				return err
			}
		}
		return nil
	}
	sessions := make([]*session, len(parts))
	errs := make([]error, len(parts))
	pool.Run(cfg.Shards, len(parts), func(i int) {
		pcfg := cfg
		pcfg.session = newSession()
		sessions[i] = pcfg.session
		errs[i] = parts[i].run(pcfg)
	})
	var offset uint64
	for i, p := range parts {
		if errs[i] != nil {
			return errs[i]
		}
		if p.rebase != nil {
			p.rebase(offset)
		}
		if s := sessions[i].sink; s != nil {
			offset += s.Seq()
		}
	}
	return nil
}
