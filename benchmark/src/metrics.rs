//! The benchmark's fixed vocabulary: every metric name, its unit and which
//! direction is better. `BENCHMARK.json` at the repository root carries the
//! same tables; a unit test keeps the two identical.

/// An end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen
    /// before the acceptance check, and `compare` for a host-side metric,
    /// call it worse.
    pub bound: f64,
    /// `true` for a metric that is a function of the seed alone: `compare`
    /// takes two runs of one seed and allows it no change at all.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound,
        exact,
    }
}

/// End-to-end metrics, reported on every workload with tracing off.
///
/// The bounds are sized from measurement, not from hope. The acceptance
/// check runs each workload on ten different seeds and requires every
/// metric's spread (interquartile range / median) to stay inside its
/// bound, so a bound has to cover both this machine's drift and the
/// metric's honest movement with the generated inputs. Each is about three
/// times the widest spread measured on any workload, and at most the 25 %
/// the builder's contract allows. Widest spreads, two sets of ten seeds:
///
/// * `ops_per_sec` 12 % (`haas_elastic`), 9 % (`sharded_volley`), 4-6 %
///   elsewhere; `setup_s` 10 % (`incast_lossy`): the container's speed
///   wanders by +-10 % over tens of seconds — the same busy loop takes
///   55-72 ms, in CPU time as much as in wall time;
/// * `peak_heap_bytes` 1.3 % (`incast_lossy`); `allocs_per_op` 2.9 %
///   (`fleet_hybrid`);
/// * `sim_lat_p50_us` 9 % and `sim_lat_p999_us` 9 % (`haas_elastic`: the
///   lease waits of an oversubscribed pool), `sim_lat_p999_us` 11 %
///   (`incast_lossy`); `sim_ops_per_sim_s` 3.2 % (`fleet_hybrid`).
///
/// At a fixed seed the `sim_*` metrics repeat exactly, and `compare` holds
/// them to that.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("ops_per_sec", "1/s", true, 0.25, false),
    e2e("setup_s", "s", false, 0.25, false),
    e2e("peak_heap_bytes", "bytes", false, 0.05, false),
    e2e("allocs_per_op", "count/op", false, 0.10, false),
    e2e("sim_lat_p50_us", "sim-us", false, 0.25, true),
    e2e("sim_lat_p999_us", "sim-us", false, 0.25, true),
    e2e("sim_ops_per_sim_s", "1/sim-s", true, 0.10, true),
];

/// A per-layer metric: it explains, it does not gate, so it has no bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

impl LayerDef {
    /// `true` for a figure of a layer probe — a direct call into the
    /// layer, the same whichever workloads ran — and `false` for one read
    /// off a workload's own run.
    pub fn is_probe(&self) -> bool {
        self.name
            .rsplit('.')
            .next()
            .is_some_and(|last| last.starts_with("probe_"))
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> LayerDef {
    LayerDef {
        name,
        unit,
        higher_is_better,
    }
}

/// Per-layer metrics of the traced pass. Those of a workload's own run are
/// reported on every workload, and a layer the workload does not exercise
/// reads 0 there — which is itself the separation the workloads were
/// chosen for. The `probe_*` ones are measured once per traced pass.
pub const PER_LAYER: [LayerDef; 92] = [
    // dcsim.engine: [cnt] + [probe: 1024 self-rescheduling no-op chains]
    layer("dcsim.engine.events", "count", false),
    layer("dcsim.engine.ns_per_event", "ns", false),
    layer("dcsim.engine.probe_short_ns_per_event", "ns", false),
    layer("dcsim.engine.probe_mixed_ns_per_event", "ns", false),
    layer("dcsim.engine.probe_allocs_per_event", "count", false),
    // dcsim.sharded: [cnt] sync_stats + traced-pass comparisons
    layer("dcsim.sharded.shards", "count", true),
    layer("dcsim.sharded.workers", "count", true),
    layer("dcsim.sharded.sync_rounds", "count", false),
    layer("dcsim.sharded.windows_run", "count", false),
    layer("dcsim.sharded.windows_fast_forwarded", "count", true),
    layer("dcsim.sharded.window_extensions", "count", true),
    layer("dcsim.sharded.cut_events", "count", false),
    layer("dcsim.sharded.events_per_round", "count", true),
    layer("dcsim.sharded.speedup_vs_1shard", "ratio", true),
    layer("dcsim.sharded.probe_bursty_round_ratio", "ratio", true),
    // dcnet.switch: [obs] + [cnt]
    layer("dcnet.switch.events", "count", false),
    layer("dcnet.switch.busy_ns_per_event", "ns", false),
    layer("dcnet.switch.rx_frames", "count", false),
    layer("dcnet.switch.dropped", "count", false),
    layer("dcnet.switch.ecn_marked", "count", false),
    layer("dcnet.switch.pauses_sent", "count", false),
    // dcnet.packet: [probe] at MTU
    layer("dcnet.packet.probe_encode_ns", "ns", false),
    layer("dcnet.packet.probe_decode_ns", "ns", false),
    // dcnet.dcqcn
    layer("dcnet.dcqcn.cnps_rx", "count", false),
    layer("dcnet.dcqcn.probe_update_ns", "ns", false),
    // dcnet.flowsim: [obs] + [cnt]
    layer("dcnet.flowsim.events", "count", false),
    layer("dcnet.flowsim.busy_ns_per_event", "ns", false),
    layer("dcnet.flowsim.ticks", "count", false),
    layer("dcnet.flowsim.flows_completed", "count", true),
    layer("dcnet.flowsim.bytes_rejected", "bytes", false),
    // dcnet.topology: [probe] + [cnt]
    layer("dcnet.topology.probe_build_lazy_ns", "ns", false),
    layer("dcnet.topology.probe_build_eager_ns", "ns", false),
    layer("dcnet.topology.materialized_pods", "count", false),
    layer("dcnet.topology.switch_count", "count", false),
    // shell.shell: [obs] + [cnt]
    layer("shell.shell.events", "count", false),
    layer("shell.shell.busy_ns_per_event", "ns", false),
    layer("shell.shell.injected_drops", "count", false),
    layer("shell.shell.corrupt_drops", "count", false),
    // shell.ltl: [cnt] + [probe: two engines back to back]
    layer("shell.ltl.data_sent", "count", false),
    layer("shell.ltl.retransmits", "count", false),
    layer("shell.ltl.timeouts", "count", false),
    layer("shell.ltl.nacks_rx", "count", false),
    layer("shell.ltl.sacks_rx", "count", false),
    layer("shell.ltl.duplicates", "count", false),
    layer("shell.ltl.msgs_delivered", "count", true),
    layer("shell.ltl.retransmit_ratio", "ratio", false),
    layer("shell.ltl.goodput_gbps", "Gb/sim-s", true),
    layer("shell.ltl.probe_gbn_ns_per_frame", "ns", false),
    layer("shell.ltl.probe_sr_ns_per_frame", "ns", false),
    layer("shell.ltl.probe_gbn_lossy_ns_per_frame", "ns", false),
    layer("shell.ltl.probe_sr_lossy_ns_per_frame", "ns", false),
    layer("shell.ltl.probe_frame_encode_ns", "ns", false),
    layer("shell.ltl.probe_frame_decode_ns", "ns", false),
    // shell.er: [probe] only — no shell instantiates a router, so the
    // counters are the probe's own (exact for a seed)
    layer("shell.er.probe_flits_routed", "count", true),
    layer("shell.er.probe_credit_stalls", "count", false),
    layer("shell.er.probe_ns_per_flit", "ns", false),
    // core
    layer("core.workload.events", "count", false),
    layer("core.workload.busy_ns_per_event", "ns", false),
    layer("core.cluster.probe_add_shell_ns", "ns", false),
    layer("core.cluster.probe_connect_pair_ns", "ns", false),
    layer("core.chaos.faults_injected", "count", false),
    layer("core.chaos.build_ns", "ns", false),
    // apps
    layer("apps.remote.completed", "count", true),
    layer("apps.remote.retries", "count", false),
    layer("apps.remote.failovers", "count", false),
    layer("apps.dnn.probe_infer_ns", "ns", false),
    layer("apps.ranking.probe_ffu_ns_per_doc", "ns", false),
    layer("apps.ranking.probe_dpf_ns_per_doc", "ns", false),
    layer("apps.crypto.probe_gcm_mb_per_s", "MB/s", true),
    layer("apps.crypto.probe_cbc_sha1_mb_per_s", "MB/s", true),
    // haas
    layer("haas.elastic.events_applied", "count", true),
    layer("haas.elastic.decisions", "count", false),
    layer("haas.elastic.grants", "count", true),
    layer("haas.elastic.preemptions", "count", false),
    layer("haas.elastic.migrations", "count", false),
    layer("haas.elastic.rejects", "count", false),
    layer("haas.elastic.utilization_permille", "permille", true),
    layer("haas.elastic.ns_per_event", "ns", false),
    layer("haas.elastic.probe_ns_per_event_24boards", "ns", false),
    layer("haas.health.reports", "count", false),
    layer("haas.health.replacements", "count", false),
    // telemetry
    layer("telemetry.registry.probe_snapshot_ns", "ns", false),
    layer("telemetry.registry.probe_json_ns", "ns", false),
    layer("telemetry.registry.paths", "count", false),
    layer("telemetry.histogram.probe_record_ns", "ns", false),
    layer("telemetry.trace.probe_record_ns", "ns", false),
    layer("telemetry.trace.overhead_pct", "%", false),
    // the harness's own components, anything unclassified, and the cost
    // of the benchmark's tracing itself
    layer("bench.driver.events", "count", false),
    layer("bench.driver.busy_ns_per_event", "ns", false),
    layer("other.events", "count", false),
    layer("other.busy_ns_per_event", "ns", false),
    layer("bench.trace_overhead_pct", "%", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use serde::Value;

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        json::get(obj, key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn text(v: &Value) -> &str {
        json::as_str(v).unwrap_or_else(|| panic!("not a string: {v:?}"))
    }

    fn items(v: &Value) -> &[Value] {
        json::as_array(v).unwrap_or_else(|| panic!("not an array: {v:?}"))
    }

    fn better(higher_is_better: bool) -> &'static str {
        if higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} defined twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is what the acceptance check reads; this table is
    /// what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_carries_the_same_tables() {
        let raw = include_str!("../../BENCHMARK.json");
        let doc = telemetry::json::parse(raw).expect("BENCHMARK.json parses");

        let e2e = items(field(&doc, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(field(json, "name")), def.name);
            assert_eq!(text(field(json, "unit")), def.unit, "{}", def.name);
            assert_eq!(
                text(field(json, "better")),
                better(def.higher_is_better),
                "{}",
                def.name
            );
            assert_eq!(field(json, "bound"), &Value::F64(def.bound), "{}", def.name);
        }

        let layers = items(field(&doc, "per_layer"));
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(field(json, "name")), def.name);
            assert_eq!(text(field(json, "unit")), def.unit, "{}", def.name);
            assert_eq!(
                text(field(json, "better")),
                better(def.higher_is_better),
                "{}",
                def.name
            );
        }

        let workloads = items(field(&doc, "workloads"));
        assert_eq!(workloads.len(), crate::workloads::ALL.len());
        for (json, w) in workloads.iter().zip(&crate::workloads::ALL) {
            assert_eq!(text(field(json, "name")), w.name);
            assert!(text(field(json, "why")).len() <= 200, "{}", w.name);
        }
    }
}
