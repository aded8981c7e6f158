package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// traceTotals sums one or more traced rounds by span and aggregate
// name.
type traceTotals struct {
	wall, rootSelf float64
	spanDur        map[string]float64
	spanSelf       map[string]float64
	aggNs          map[string]float64
	aggCalls       map[string]uint64
	aggItems       map[string]uint64
	// shardLaneSelf is, over every RunSharded span, the time each shard
	// worker's lane spent outside its L2 calls: L1D, hierarchy glue,
	// record filtering and waiting for blocks.
	shardLaneSelf float64
	// layers is the time attributed to each layer: span self times
	// plus aggregate estimates.
	layers map[string]float64
}

func newTraceTotals() *traceTotals {
	return &traceTotals{
		spanDur: map[string]float64{}, spanSelf: map[string]float64{},
		aggNs: map[string]float64{}, aggCalls: map[string]uint64{}, aggItems: map[string]uint64{},
		layers: map[string]float64{},
	}
}

// add folds one traced round in. A span's self time is its duration
// minus the time its children cover: children on one track add up,
// and the busiest track covers a span whose tracks overlap.
func (tt *traceTotals) add(tr *tracer) {
	n := len(tr.spans)
	dur := make([]float64, n)
	tracks := make([][]float64, n)
	cover := func(parent, track int, ns float64) {
		if parent < 0 {
			return
		}
		for len(tracks[parent]) <= track {
			tracks[parent] = append(tracks[parent], 0)
		}
		tracks[parent][track] += ns
	}
	for i, s := range tr.spans {
		dur[i] = float64(s.End - s.Start)
		cover(s.Parent, 0, dur[i])
	}
	for _, a := range tr.aggs {
		est := a.estNs()
		cover(a.Parent, a.Track, est)
		tt.aggNs[a.Name] += est
		tt.aggCalls[a.Name] += a.Calls
		tt.aggItems[a.Name] += a.Items
		tt.layers[layerOf(a.Name)] += est
	}
	for i, s := range tr.spans {
		covered := 0.0
		for _, t := range tracks[i] {
			covered = max(covered, t)
		}
		self := dur[i] - covered
		tt.spanDur[s.Name] += dur[i]
		tt.spanSelf[s.Name] += self
		tt.layers[layerOf(s.Name)] += self
		if s.Parent < 0 {
			tt.wall += dur[i]
			tt.rootSelf += self
		}
		if s.Name == "hierarchy.run_sharded" && len(tracks[i]) > 1 {
			for _, t := range tracks[i][1:] {
				tt.shardLaneSelf += dur[i] - t
			}
		}
	}
}

// layerOf maps a span or aggregate name to its layer: the name's
// first component, except that every L2 organization is its own layer
// and the round's own self time is the benchmark loop's.
func layerOf(name string) string {
	switch {
	case name == "round":
		return "loop"
	case strings.HasPrefix(name, "l2."):
		return name[:strings.LastIndexByte(name, '.')]
	case strings.Contains(name, "."):
		return name[:strings.IndexByte(name, '.')]
	}
	return name
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// totalsOf sums the traces of the traced rounds.
func totalsOf(traced []roundResult) *traceTotals {
	tt := newTraceTotals()
	for _, rr := range traced {
		tt.add(rr.tr)
	}
	return tt
}

// layerMetrics derives the per-layer metrics of a traced run from its
// traced rounds and their summed traces.
func layerMetrics(p *plan, traced []roundResult, tt *traceTotals) map[string]float64 {
	var sim simCounts
	var accesses float64
	var imbalance, gains []float64
	var rebalances, agree, shadowed int
	for _, rr := range traced {
		accesses += float64(rr.accesses)
		for _, res := range rr.results {
			sim.add(res.sim)
			if len(res.shardLoads) > 0 {
				var sum, most uint64
				for _, l := range res.shardLoads {
					sum += l
					most = max(most, l)
				}
				imbalance = append(imbalance, ratio(float64(most), float64(sum)/float64(len(res.shardLoads))))
			}
			if t := res.tenants; t != nil {
				rebalances += t.rebalances
				agree += t.agree
				shadowed += t.shadowed
			}
		}
		if p.name == wlTiming {
			gains = append(gains, ipcGainPct(p.cells, rr.results))
		}
	}
	rounds := float64(len(traced))
	m := map[string]float64{}
	gen := tt.aggNs["workload.next_batch"] + tt.aggNs["workload.next"]
	recs := float64(tt.aggItems["workload.next_batch"] + tt.aggItems["workload.next"])
	m["workload.ns_per_record"] = ratio(gen, recs)
	m["workload.share"] = ratio(gen, tt.wall)
	m["trace.decode_ns_per_record"] = ratio(tt.aggNs["trace.decode"], float64(tt.aggItems["trace.decode"]))
	m["trace.producer_busy_frac"] = ratio(tt.aggNs["trace.decode"], tt.spanDur["hierarchy.run_sharded"])
	m["hierarchy.self_ns_per_access"] = ratio(tt.spanSelf["hierarchy.do_batch"]+tt.shardLaneSelf, accesses)
	m["hierarchy.shard_imbalance"] = mean(imbalance)
	m["l1.hit_frac"] = ratio(float64(sim.l1Hits), float64(sim.l1Accesses))
	for _, org := range []string{orgBase, orgLDIS, orgFAC, orgLDISBase} {
		name := "l2." + org + ".access"
		m["l2."+org+".ns_per_call"] = ratio(tt.aggNs[name], float64(tt.aggCalls[name]))
		m["l2."+org+".calls"] = ratio(float64(tt.aggCalls[name]), rounds)
	}
	m["l2.ldis.wb_ns_per_call"] = ratio(tt.aggNs["l2.ldis.writeback"], float64(tt.aggCalls["l2.ldis.writeback"]))
	m["distill.loc_hit_frac"] = ratio(float64(sim.locHits), float64(sim.ldisAccesses))
	m["distill.woc_hit_frac"] = ratio(float64(sim.wocHits), float64(sim.ldisAccesses))
	m["distill.hole_miss_frac"] = ratio(float64(sim.holeMiss), float64(sim.ldisAccesses))
	m["cpu.self_ns_per_access"] = ratio(tt.spanSelf["cpu.run"], accesses)
	m["cpu.ipc_gain_pct"] = mean(gains)
	for _, b := range []string{"observe", "epoch", "apply"} {
		name := "partition." + b
		m[name+"_ns_per_call"] = ratio(tt.aggNs[name], float64(tt.aggCalls[name]))
	}
	m["l2.tenant.ns_per_call"] = ratio(tt.aggNs["l2.tenant.access"], float64(tt.aggCalls["l2.tenant.access"]))
	m["partition.rebalances"] = ratio(float64(rebalances), rounds)
	m["partition.agreement_pct"] = 100 * ratio(float64(agree), float64(shadowed))
	m["unattributed_frac"] = ratio(math.Abs(tt.rootSelf+tt.spanSelf["cell"]), tt.wall)
	return m
}

// layerShares renders each layer's share of traced wall time, largest
// first. Under RunSharded the producer and shard lanes overlap, so
// replay's shares can sum past 1.
func layerShares(tt *traceTotals) []string {
	names := make([]string, 0, len(tt.layers))
	for name := range tt.layers {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if tt.layers[names[i]] != tt.layers[names[j]] {
			return tt.layers[names[i]] > tt.layers[names[j]]
		}
		return names[i] < names[j]
	})
	lines := []string{fmt.Sprintf("layer shares of %.3fs traced wall time:", tt.wall/1e9)}
	for _, name := range names {
		lines = append(lines, fmt.Sprintf("  %-16s %6.3f  %9.3fms", name, ratio(tt.layers[name], tt.wall), tt.layers[name]/1e6))
	}
	return lines
}
