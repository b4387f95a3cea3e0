package main

import "blockhead/internal/core"

type metricDef struct{ name, unit string }

// perLayer lists every per-layer metric a traced run prints, in the order
// BENCHMARK.json declares them. A workload that does not exercise a layer
// reports 0 for it.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	add("count", "ftl.write_calls")
	add("ms", "ftl.write_ms")
	add("count", "ftl.read_calls")
	add("ms", "ftl.read_ms")
	add("count", "ftl.gc_write_calls")
	add("ms", "ftl.gc_write_ms")
	add("count", "ftl.gc_runs")
	add("ns", "ftl.ns_per_gc_run")
	add("count", "ftl.gc_copy_pages")
	add("ratio", "ftl.sim_wa")

	add("count", "hostftl.write_calls")
	add("ms", "hostftl.write_ms")
	add("count", "hostftl.read_calls")
	add("ms", "hostftl.read_ms")
	add("count", "hostftl.reclaim_write_calls")
	add("ms", "hostftl.reclaim_write_ms")
	add("count", "hostftl.gc_resets", "hostftl.reloc_pages", "hostftl.map_ops",
		"hostftl.maint_ticks", "hostftl.emergencies")
	add("ratio", "hostftl.sim_wa")

	add("count", "zns.appends", "zns.resets")
	add("count", "flash.reads", "flash.programs", "flash.erases")
	add("frac", "flash.lun_util")

	for _, b := range kvBackends {
		p := "zkv." + b + "."
		add("ms", p+"put_ms", p+"get_ms", p+"self_ms", p+"backend_ms")
		add("count", p+"read_at_calls")
		add("ms", p+"read_at_ms", p+"write_table_ms")
		add("count", p+"flushes", p+"compactions")
		add("ratio", p+"app_wa", p+"dev_wa")
	}

	add("ms", "core.drive_self_ms")
	for _, e := range core.All() {
		add("ms", "core.exp."+e.ID+"_ms")
	}
	add("ms", "core.format_ms")

	add("count", "go.gc_cycles")
	add("frac", "go.gc_cpu_frac")
	for _, m := range cpuModules {
		add("frac", "cpu."+m)
	}
	add("frac", "trace.overhead_frac")
	add("s", "run.wall_s")
	return defs
}
