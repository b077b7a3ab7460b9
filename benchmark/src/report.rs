//! Metric tables, small statistics and the JSON the harness emits.
//!
//! `END_TO_END` and `PER_LAYER` are the single list of metric names; the
//! `BENCHMARK.json` at the repo root repeats them (pinned by a test).

use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: share of the reference by which the metric may worsen.
    /// Per-layer metrics carry no bound (0).
    pub bound: f64,
    /// A count the program makes that must repeat exactly for a fixed
    /// `(seed, workload, seconds)`; `--selfcheck` compares these bitwise.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

/// A per-layer measurement: no bound, not expected to repeat exactly.
const fn measured(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    measured(name, unit, Better::Lower)
}

const fn ratio(name: &'static str, better: Better) -> MetricDef {
    measured(name, "ratio", better)
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("step_wall_s", "s", Lower, 0.25),
    e2e("items_per_s", "1/s", Higher, 0.25),
    e2e("run_wall_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// One layer each; measured in the traced pass. A metric whose layer does
/// not run in a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // hot-morton
    timed("morton.encode_ns", "ns"),
    // hot-core::htable
    timed("htable.insert_ns", "ns"),
    timed("htable.get_ns", "ns"),
    count("htable.probes_per_get", "count", Lower),
    // hot-core::tree
    timed("tree.build_ns_per_body", "ns"),
    count("tree.cells_per_body", "count", Lower),
    // hot-core::walk
    timed("walk.list_ns_per_ixn", "ns"),
    count("walk.ixn_per_body", "count", Lower),
    count("walk.pp_share", "ratio", Lower),
    // hot-gravity::kernels / evaluator
    timed("kernels.apply_ns_per_ixn", "ns"),
    measured("kernels.gflops_paper", "Gflop/s", Higher),
    // hot-gravity::treecode
    timed("treecode.other_s", "s"),
    // hot-cosmo
    timed("ics.field_s", "s"),
    timed("ics.zeldovich_s", "s"),
    timed("sim.force_s", "s"),
    timed("sim.kick_drift_s", "s"),
    count("sim.ixn_per_body_first", "count", Lower),
    count("sim.ixn_per_body_last", "count", Lower),
    // hot-core::decomp
    timed("decomp.phase_s", "s"),
    count("decomp.bodies_moved", "count", Lower),
    // hot-core::tree + dtree (distributed)
    timed("treebuild.phase_s", "s"),
    timed("dtree.phase_s", "s"),
    count("dtree.branch_cells", "count", Lower),
    // hot-core::dwalk
    timed("dwalk.phase_s", "s"),
    count("dwalk.rounds", "count", Lower),
    count("dwalk.request_msgs", "count", Lower),
    count("dwalk.prefetch_hit_ratio", "ratio", Higher),
    count("dwalk.ixn_skew", "ratio", Lower),
    ratio("dwalk.wait_share", Lower),
    // hot-comm::runtime
    measured("comm.sends_per_step", "count", Lower),
    measured("comm.bytes_per_step", "B", Lower),
    measured("comm.sends_per_rank_max", "count", Lower),
    timed("p2p.ring_us", "us"),
    timed("p2p.pingpong_ns", "ns"),
    // hot-comm::collectives
    timed("coll.barrier_us", "us"),
    timed("coll.allreduce_us", "us"),
    timed("coll.allgather_us", "us"),
    timed("coll.alltoall_ms", "ms"),
    // hot-comm::events / fiber
    timed("events.launch_s", "s"),
    timed("events.teardown_s", "s"),
    ratio("events.speedup_w2", Higher),
    // hot-comm::wire / abm
    timed("wire.encode_ns_per_byte", "ns"),
    timed("wire.decode_ns_per_byte", "ns"),
    timed("wire.frame_ns_per_byte", "ns"),
    timed("abm.post_ns", "ns"),
    // hot-trace (model clock: counts, never wall-clock)
    count("model.step_s", "s", Lower),
    count("model.flops", "count", Lower),
    count("model.cells_opened", "count", Lower),
    count("model.hash_probes", "count", Lower),
    // the harness itself
    count("force_rms_err", "ratio", Lower),
    timed("traced_step_wall_s", "s"),
    ratio("trace_overhead_frac", Lower),
    ratio("span_coverage_frac", Higher),
];

pub fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// `VmHWM` of this process in MiB (Linux; 0 where /proc is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (shortest text that
/// round-trips the `f64`).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v:?}")
}

/// The one-line result object of a run: exactly the keys the driver reads.
pub fn result_json(correct: bool, attempted: u64, failed: u64, trace: bool, m: &Metrics) -> String {
    let metrics: Vec<String> = defs(trace)
        .iter()
        .filter_map(|d| {
            m.get(d.name).map(|v| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(d.name),
                    json_num(*v),
                    json_str(d.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is what the driver reads; it must list exactly the
    /// metrics this harness prints, with the same unit, direction and bound.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for d in END_TO_END {
            let better = if d.better == Lower { "lower" } else { "higher" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                d.name, d.unit, d.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in PER_LAYER {
            let better = if d.better == Lower { "lower" } else { "higher" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                d.name, d.unit
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new();
        for d in END_TO_END {
            m.insert(d.name, 1.5);
        }
        let line = result_json(true, 5, 0, false, &m);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(json_num(1e-7), "1e-7");
    }
}
