package main

import "sort"

// metricSpec is one metric's name, unit and better direction, exactly as
// BENCHMARK.json declares it (the self-test holds the two equal).
type metricSpec struct{ name, unit, better string }

// endToEnd lists the metrics of an untraced run.  host_* metrics are host
// wall-clock or host memory on the machine running the benchmark; virt_*
// metrics and safe_native_ratio are deterministic guest virtual cycles
// (1 cycle = 1 ns at the nominal 1 GHz clock).  Every value is positive:
// an overhead is a ratio, not a percentage that could cross zero.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"host_ops_per_s", "1/s", "higher"},
	{"host_alloc_b_per_op", "B", "lower"},
	{"host_live_heap_mb", "MB", "lower"},
	{"virt_cyc_per_op", "cyc", "lower"},
	{"virt_p50_cyc", "cyc", "lower"},
	{"virt_p99_cyc", "cyc", "lower"},
	{"safe_native_ratio", "x", "lower"},
}

// perLayer lists the metrics of a traced run.
func perLayer() []metricSpec {
	ms := []metricSpec{
		{"kernel.build_ms", "ms", "lower"},
		{"safety.compile_ms", "ms", "lower"},
		{"vm.load_boot_ms", "ms", "lower"},
		{"vm.instr_per_op", "instr", "lower"},
		{"vm.traps_per_op", "count", "lower"},
		{"vm.engine_share", "share", "higher"},
		{"vm.host_minstr_per_s", "Minstr/s", "higher"},
		{"vm.kernel_instr_share", "share", "lower"},
		{"vm.switches_per_op", "count", "lower"},
		{"vm.translations", "count", "lower"},
		{"svaos.trap_cyc_per_op", "cyc", "lower"},
		{"svaos.ops_per_op", "count", "lower"},
		{"svaos.state_ops_per_op", "count", "lower"},
		{"svaos.icontext_ops_per_op", "count", "lower"},
		{"svaos.mem_ops_per_op", "count", "lower"},
		{"svaos.io_ops_per_op", "count", "lower"},
		{"checks.bounds_per_op", "count", "lower"},
		{"checks.ls_per_op", "count", "lower"},
		{"checks.ic_per_op", "count", "lower"},
		{"checks.cyc_per_op", "cyc", "lower"},
		{"checks.reg_cyc_per_op", "cyc", "lower"},
		{"checks.elided_share", "share", "higher"},
		{"metapool.lookups_per_op", "count", "lower"},
		{"metapool.pagemap_share", "share", "higher"},
		{"metapool.lasthit_share", "share", "higher"},
		{"metapool.pending_share", "share", "higher"},
		{"metapool.tree_share", "share", "lower"},
		{"metapool.splay_per_op", "count", "lower"},
		{"metapool.reg_per_op", "count", "lower"},
		{"metapool.drop_per_op", "count", "lower"},
		{"metapool.absorbed_share", "share", "higher"},
		{"metapool.spills_per_kop", "count", "lower"},
		{"metapool.reclaims_per_kop", "count", "lower"},
		{"metapool.violations", "count", "lower"},
		{"kernel.syscalls_per_op", "count", "lower"},
		{"kernel.guest_cyc_share", "share", "higher"},
		{"kernel.sched_cyc_share", "share", "lower"},
	}
	for _, p := range allProgs() {
		ms = append(ms,
			metricSpec{"op." + p.name + ".host_share", "share", "lower"},
			metricSpec{"op." + p.name + ".virt_cyc", "cyc", "lower"})
	}
	ms = append(ms,
		metricSpec{"hw.doorbells_per_req", "count", "lower"},
		metricSpec{"hw.frames_per_bell", "count", "higher"},
		metricSpec{"hw.intr_per_req", "count", "lower"},
		metricSpec{"hw.bad_descs", "count", "lower"},
		metricSpec{"netgen.release_lag_p99_cyc", "cyc", "lower"})
	for _, l := range hostLayerNames() {
		ms = append(ms, metricSpec{"host." + l + "_share", "share", "lower"})
	}
	return append(ms,
		metricSpec{"telemetry.coverage", "share", "higher"},
		metricSpec{"trace.overhead_pct", "%", "lower"})
}

// endToEndMetrics computes the untraced run's metrics.
func endToEndMetrics(d *runData) map[string]float64 {
	virt := d.virtPasses()
	var allocB, ops float64
	for _, p := range d.passes {
		allocB += float64(p.allocB)
		ops += float64(p.ops)
	}
	p50, p99 := d.virtLatency()
	return map[string]float64{
		"setup_s":             median(d.setupS),
		"host_ops_per_s":      fastRate(d.passes),
		"host_alloc_b_per_op": ratio(allocB, ops),
		"host_live_heap_mb":   d.heapMB,
		"virt_cyc_per_op":     d.virtCycPerOp(virt),
		"virt_p50_cyc":        p50,
		"virt_p99_cyc":        p99,
		"safe_native_ratio":   ratio(d.virtCycPerOp(virt), d.virtCycPerOp(d.native)),
	}
}

// layerMetrics computes the traced run's metrics.  Counts come from the
// profiled virtual prefix of the traced rerun, so they repeat exactly;
// host shares come from the CPU profile of the passes after it.
func layerMetrics(d *runData, hostShare map[string]float64) map[string]float64 {
	var (
		st           layerSample
		ops          float64
		classCyc     = map[string]float64{}
		classOps     = map[string]float64{}
		opCyc        = map[string]float64{}
		svaOps       float64
		attributed   float64
		sched        float64
		cycles0, op0 float64
	)
	traced := d.traced
	if len(traced) > d.virtN {
		traced = traced[:d.virtN]
	}
	for _, p := range traced {
		l := p.layer
		ops += float64(p.ops)
		st.vm.Add(l.vm)
		st.checks.Add(l.checks)
		st.splay += l.splay
		st.syscalls += l.syscalls
		cycles0 += float64(l.cycles0)
		op0 += float64(l.ops0)
		attributed += float64(l.prof.Attributed)
		for _, o := range l.prof.Ops {
			classCyc[o.Class] += float64(o.Cycles)
			classOps[o.Class] += float64(o.Count)
			opCyc[o.Name] += float64(o.Cycles)
			if o.Class != "check" {
				svaOps += float64(o.Count)
			}
		}
		for _, f := range l.prof.Functions {
			if f.Name == "schedule" || f.Name == "pick_next" {
				sched += float64(f.Cycles)
			}
		}
	}
	var opTotal float64
	for _, c := range classCyc {
		opTotal += c
	}
	vmc, ck := st.vm, st.checks
	lookups := float64(ck.PageHits + ck.CacheHits + ck.PendHits + ck.CacheMisses)
	checked := float64(vmc.ChecksBounds + vmc.ChecksLS)
	elided := float64(vmc.ElidedBounds + vmc.ElidedLS)
	regCyc := opCyc["pchk.reg.obj"] + opCyc["pchk.reg.stack"] + opCyc["sva.pool.regbatch"] + opCyc["pchk.drop.obj"]

	var steps, allOps float64
	for _, p := range d.passes {
		steps += float64(p.steps)
		allOps += float64(p.ops)
	}
	untracedRate := fastRate(d.passes)
	m := map[string]float64{
		"kernel.build_ms":            d.buildMs,
		"safety.compile_ms":          d.compileMs,
		"vm.load_boot_ms":            d.loadBootMs,
		"vm.instr_per_op":            ratio(float64(vmc.Steps), ops),
		"vm.traps_per_op":            ratio(float64(vmc.Traps), ops),
		"vm.engine_share":            ratio(float64(vmc.EngineSteps), float64(vmc.Steps)),
		"vm.host_minstr_per_s":       untracedRate * ratio(steps, allOps) / 1e6,
		"vm.kernel_instr_share":      ratio(float64(vmc.KSteps), float64(vmc.Steps)),
		"vm.switches_per_op":         ratio(float64(vmc.Switches), ops),
		"vm.translations":            float64(d.timedTranslations()),
		"svaos.trap_cyc_per_op":      ratio(opCyc["sva.trap"], op0),
		"svaos.ops_per_op":           ratio(svaOps, op0),
		"svaos.state_ops_per_op":     ratio(classOps["state"], op0),
		"svaos.icontext_ops_per_op":  ratio(classOps["icontext"], op0),
		"svaos.mem_ops_per_op":       ratio(classOps["mem"], op0),
		"svaos.io_ops_per_op":        ratio(classOps["io"], op0),
		"checks.bounds_per_op":       ratio(float64(vmc.ChecksBounds), ops),
		"checks.ls_per_op":           ratio(float64(vmc.ChecksLS), ops),
		"checks.ic_per_op":           ratio(float64(vmc.ChecksIC), ops),
		"checks.cyc_per_op":          ratio(classCyc["check"], op0),
		"checks.reg_cyc_per_op":      ratio(regCyc, op0),
		"checks.elided_share":        ratio(elided, checked+elided),
		"metapool.lookups_per_op":    ratio(lookups, ops),
		"metapool.pagemap_share":     ratio(float64(ck.PageHits), lookups),
		"metapool.lasthit_share":     ratio(float64(ck.CacheHits), lookups),
		"metapool.pending_share":     ratio(float64(ck.PendHits), lookups),
		"metapool.tree_share":        ratio(float64(ck.CacheMisses), lookups),
		"metapool.splay_per_op":      ratio(float64(st.splay), ops),
		"metapool.reg_per_op":        ratio(float64(ck.Registered), ops),
		"metapool.drop_per_op":       ratio(float64(ck.Dropped), ops),
		"metapool.absorbed_share":    ratio(float64(ck.Absorbed), float64(ck.Registered)),
		"metapool.spills_per_kop":    1000 * ratio(float64(ck.Spilled), ops),
		"metapool.reclaims_per_kop":  1000 * ratio(float64(ck.EpochReclaims), ops),
		"metapool.violations":        float64(ck.Violations),
		"kernel.syscalls_per_op":     ratio(float64(st.syscalls), ops),
		"kernel.guest_cyc_share":     ratio(attributed-opTotal, attributed),
		"kernel.sched_cyc_share":     ratio(sched, attributed),
		"telemetry.coverage":         ratio(attributed, cycles0),
		"trace.overhead_pct":         100 * (ratio(untracedRate, fastRate(traced)) - 1),
		"netgen.release_lag_p99_cyc": float64(pctile(pooled(d.loads, func(c cellResult) []uint64 { return c.lags }), 99)),
	}
	for _, p := range allProgs() {
		m["op."+p.name+".host_share"], m["op."+p.name+".virt_cyc"] = d.progCosts(p.name)
	}
	var bells, done, intr, bad, replies float64
	for _, p := range d.virtPasses() {
		if c := p.cell; c != nil {
			bells += float64(c.doorbells)
			done += float64(c.completed)
			intr += float64(c.intr)
			bad += float64(c.badDescs)
			replies += float64(c.valid)
		}
	}
	m["hw.doorbells_per_req"] = ratio(bells, replies)
	m["hw.frames_per_bell"] = ratio(done, bells)
	m["hw.intr_per_req"] = ratio(intr, replies)
	m["hw.bad_descs"] = bad
	for l, s := range hostShare {
		m["host."+l+"_share"] = s
	}
	return m
}

// virtPasses returns the timed passes that fix the virtual metrics: the
// prefix the native twin and the traced rerun also run.
func (d *runData) virtPasses() []passResult {
	if len(d.passes) > d.virtN {
		return d.passes[:d.virtN]
	}
	return d.passes
}

// virtCycPerOp is virtual cycles per op.  On net it charges every VCPU the
// cell's makespan, so idle and imbalance count: replies per virtual second
// across the machine are netVCPUs*1e9 divided by this value.
func (d *runData) virtCycPerOp(ps []passResult) float64 {
	var cyc, ops float64
	for _, p := range ps {
		if d.w.net {
			cyc += float64(p.makespan) * netVCPUs
		} else {
			cyc += float64(p.cycles)
		}
		ops += float64(p.ops)
	}
	return ratio(cyc, ops)
}

// virtLatency returns the median and p99 virtual latency of an op.  On
// net an op is a request, timed from its scheduled arrival in the offered-
// load cells.  On the other workloads each op takes its program run's mean
// cycles per op (a Table 7 or Table 5 row), weighted by the ops it did.
func (d *runData) virtLatency() (p50, p99 float64) {
	if d.w.net {
		lats := pooled(d.loads, func(c cellResult) []uint64 { return c.lats })
		return float64(pctile(lats, 50)), float64(pctile(lats, 99))
	}
	type wl struct{ lat, w float64 }
	var xs []wl
	var total float64
	for _, p := range d.virtPasses() {
		for _, s := range p.progs {
			if s.ops > 0 {
				xs = append(xs, wl{float64(s.cycles) / float64(s.ops), float64(s.ops)})
				total += float64(s.ops)
			}
		}
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].lat < xs[j].lat })
	at := func(q float64) float64 {
		var cum float64
		for _, x := range xs {
			cum += x.w
			if cum >= q*total {
				return x.lat
			}
		}
		return 0
	}
	return at(0.50), at(0.99)
}

// progCosts returns a program's share of the timed host time and its
// virtual cycles per op (both 0 when the workload does not run it).
func (d *runData) progCosts(name string) (hostShare, virtCyc float64) {
	idx := -1
	for i, p := range d.w.progs {
		if p.name == name {
			idx = i
		}
	}
	if idx < 0 {
		return 0, 0
	}
	var progNs, passNs, cyc, ops float64
	for _, p := range d.passes {
		progNs += float64(p.progs[idx].hostNs)
		passNs += float64(p.hostNs)
	}
	for _, p := range d.virtPasses() {
		cyc += float64(p.progs[idx].cycles)
		ops += float64(p.progs[idx].ops)
	}
	return ratio(progNs, passNs), ratio(cyc, ops)
}

func (d *runData) timedTranslations() uint64 {
	var n uint64
	for _, p := range d.passes {
		n += p.trans
	}
	return n
}

// fastRate is the op rate of the 99th-percentile-fastest pass: the speed
// of a pass that other tenants of a shared host left alone.  Over repeated
// runs of identical code on a shared 2-CPU host, the median pass rate moved
// by up to 11% and this one by at most 1.4% (bench/README.md).  The
// percentile interpolates linearly between neighbouring ranks, so it moves
// smoothly as the pass count changes with host speed; with about 100 passes
// (net) it lies between the fastest and the second-fastest pass.
func fastRate(ps []passResult) float64 {
	if len(ps) == 0 {
		return 0
	}
	rates := make([]float64, len(ps))
	for i, p := range ps {
		rates[i] = ratio(float64(p.ops)*1e9, float64(p.hostNs))
	}
	sort.Float64s(rates)
	pos := 0.99 * float64(len(rates)-1)
	i := int(pos)
	if i+1 == len(rates) {
		return rates[i]
	}
	return rates[i] + (pos-float64(i))*(rates[i+1]-rates[i])
}

func pooled(cells []cellResult, f func(cellResult) []uint64) []uint64 {
	var xs []uint64
	for _, c := range cells {
		xs = append(xs, f(c)...)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
