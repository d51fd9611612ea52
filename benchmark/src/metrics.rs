//! The ledger's metric and workload registry — the single table
//! `BENCHMARK.json`, the README and `--compare` are all checked against.
//!
//! Every run reports every metric of its kind (end-to-end with tracing
//! off, per-layer with tracing on); a per-layer metric that does not
//! apply to a workload reads 0 there (the README's table says where each
//! applies).

/// Which way is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric (no bound; explains, never gates).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "sweep_small",
        why: "in-process run_many, tiny campaigns, one warm scenario per batch: per-campaign overhead, cohort staging and lane kernel; tiers and wire bypassed",
    },
    WorkloadInfo {
        name: "sweep_paper",
        why: "in-process run_many, paper-sized campaigns on 12-day scenarios: engine event loop, EarlyCurve fits and billing; staging and tiers diluted",
    },
    WorkloadInfo {
        name: "sweep_distinct",
        why: "in-process run_many over fresh scenarios with cold tiers each batch: pool, spine and predictor builds dominate; lane kernel does little",
    },
    WorkloadInfo {
        name: "wire_closed",
        why: "real spottune-serve over loopback TCP, strict request/reply per connection through Client::run_campaign: the net layer owns the latency",
    },
    WorkloadInfo {
        name: "wire_open",
        why: "same server, seeded Poisson open loop at 200, 2000 and 8000 req/s then 32 in flight per connection: queueing, per-request CPU, saturation",
    },
    WorkloadInfo {
        name: "wire_flood",
        why: "default token-bucket admission under a 4000 req/s flood: refusals beside successes, so starving or slowing either path shows",
    },
];

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "campaigns_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 91] = [
    // market: miss costs (probes) and tier counters (fixed-work pass).
    layer("market.pool_build_ms_2d", "ms", Lower),
    layer("market.pool_build_ms_12d", "ms", Lower),
    layer("market.spine_build_ms_2d", "ms", Lower),
    layer("market.spine_build_ms_12d", "ms", Lower),
    layer("market.tier_mb_per_scenario", "MB", Lower),
    layer("market.pool_hits", "count", Higher),
    layer("market.pool_misses", "count", Lower),
    layer("market.spine_hits", "count", Higher),
    layer("market.spine_misses", "count", Lower),
    layer("market.spine_queries", "count", Lower),
    layer("market.self_pct", "%", Lower),
    // revpred
    layer("revpred.train_ms.logistic", "ms", Lower),
    layer("revpred.train_ms.revpred", "ms", Lower),
    layer("revpred.predictor_hits", "count", Higher),
    layer("revpred.predictor_misses", "count", Lower),
    layer("revpred.probe_hits", "count", Higher),
    layer("revpred.probe_misses", "count", Lower),
    layer("revpred.probe_hit_ratio", "ratio", Higher),
    layer("revpred.self_pct", "%", Lower),
    // mlsim
    layer("mlsim.curve_cold_ms", "ms", Lower),
    layer("mlsim.curve_hits", "count", Higher),
    layer("mlsim.curve_misses", "count", Lower),
    // earlycurve
    layer("earlycurve.fit_us", "us", Lower),
    layer("earlycurve.lane_kernel_ns_per_slot", "ns", Lower),
    layer("earlycurve.kernel_invocations", "count", Lower),
    layer("earlycurve.lane_jobs", "count", Higher),
    layer("earlycurve.lane_slots", "count", Lower),
    layer("earlycurve.lane_occupancy", "ratio", Higher),
    // core: batched engine spans and the wire codec.
    layer("core.session_open_us", "us", Lower),
    layer("core.cohort_ms", "ms", Lower),
    layer("core.cohort_count", "count", Lower),
    layer("core.merge_residual_ms", "ms", Lower),
    layer("core.cpu_cores_busy", "cores", Higher),
    layer("core.cpu_us_per_campaign", "us", Lower),
    layer("core.self_pct", "%", Lower),
    layer("core.wire_encode_request_us", "us", Lower),
    layer("core.wire_decode_request_us", "us", Lower),
    layer("core.wire_encode_response_us", "us", Lower),
    layer("core.wire_decode_response_us", "us", Lower),
    layer("core.wire_request_bytes", "B", Lower),
    layer("core.wire_response_bytes", "B", Lower),
    layer("core.report_digest", "fnv48", Lower),
    // cloud: the simulated statistics (a speed-only change leaves them
    // bit-identical).
    layer("cloud.cost_usd_sum", "usd", Lower),
    layer("cloud.revocations", "count", Lower),
    layer("cloud.migrations", "count", Lower),
    layer("cloud.lost_steps", "count", Lower),
    // server: in-process paths, then the TCP front-end.
    layer("server.inproc_sweep_per_s", "1/s", Higher),
    layer("server.inproc_submit_ms", "ms", Lower),
    layer("server.spawn_ms", "ms", Lower),
    layer("server.drain_ms", "ms", Lower),
    layer("server.net_stats_rtt_ms", "ms", Lower),
    layer("server.net_residual_ms", "ms", Lower),
    layer("server.net_residual_pct", "%", Lower),
    layer("server.cpu_s", "s", Lower),
    layer("server.cpu_us_per_request", "us", Lower),
    layer("server.latency_p99_ms", "ms", Lower),
    layer("server.lo_latency_p50_ms", "ms", Lower),
    layer("server.lo_latency_p90_ms", "ms", Lower),
    layer("server.lo_latency_p99_ms", "ms", Lower),
    layer("server.mid_latency_p50_ms", "ms", Lower),
    layer("server.mid_latency_p90_ms", "ms", Lower),
    layer("server.mid_latency_p99_ms", "ms", Lower),
    layer("server.hi_latency_p50_ms", "ms", Lower),
    layer("server.hi_latency_p90_ms", "ms", Lower),
    layer("server.hi_latency_p99_ms", "ms", Lower),
    layer("server.sat_per_s", "1/s", Higher),
    layer("server.max_rate_ok_per_s", "1/s", Higher),
    layer("server.refusal_p50_ms", "ms", Lower),
    layer("server.refused_share", "ratio", Lower),
    layer("server.completed", "count", Higher),
    layer("server.peak_queue_depth", "count", Lower),
    layer("server.throttled", "count", Lower),
    layer("server.overloaded", "count", Lower),
    layer("server.expired", "count", Lower),
    layer("server.malformed_frames", "count", Lower),
    layer("server.batched_groups", "count", Higher),
    // client
    layer("client.connect_ms", "ms", Lower),
    layer("client.run_campaign_ms", "ms", Lower),
    layer("client.round_trip_self_ms", "ms", Lower),
    layer("client.self_pct", "%", Lower),
    // bench: the harness's own hygiene.
    layer("bench.gen_late_p99_ms.lo", "ms", Lower),
    layer("bench.gen_late_p99_ms.mid", "ms", Lower),
    layer("bench.gen_late_p99_ms.hi", "ms", Lower),
    layer("bench.gen_late_p99_ms.flood", "ms", Lower),
    layer("bench.invalid_steps", "count", Lower),
    layer("bench.self_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.trace_unattributed_pct", "%", Lower),
    layer("bench.trace_lane_error_pct", "%", Lower),
    layer("bench.trace_spans", "count", Lower),
    layer("bench.failed_share", "ratio", Lower),
];

/// How long one run measures, and the command the driver runs.
pub const RUN_SECONDS: u64 = 10;
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
pub const PATHS: [&str; 1] = ["benchmark"];

/// `BENCHMARK.json` rendered from this registry (`--emit-benchmark-json`),
/// so the file at the repo root never drifts from what the harness
/// reports; a unit test compares the two.
pub fn benchmark_json() -> String {
    use crate::json::Value;
    let strs = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::str(*s)).collect()).encode();
    // One array element per line: readable diffs, still plain JSON.
    let rows = |rows: Vec<Value>| -> String {
        let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.encode())).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Value::obj(vec![
                ("name", Value::str(w.name)),
                ("why", Value::str(w.why)),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::obj(vec![
                ("name", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("better", Value::str(m.better.as_str())),
                ("bound", Value::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Value::obj(vec![
                ("name", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("better", Value::str(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        strs(&COMMAND),
        strs(&PATHS),
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// One measured value on its way to the result line.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (timings state their sample count).
    pub samples: u64,
}

/// Collects a run's metrics and renders them in registry order.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: Vec<Measured>,
}

impl MetricSet {
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Records `name`; later writes replace earlier ones.
    ///
    /// # Panics
    ///
    /// Panics on a name the registry does not know — a typo must not
    /// silently become a missing metric.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let name = end_to_end(name)
            .map(|m| m.name)
            .or_else(|| per_layer(name).map(|m| m.name))
            .unwrap_or_else(|| panic!("metric {name:?} is not in the registry"));
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|m| m.name == name) {
            Some(slot) => {
                slot.value = value;
                slot.samples = samples;
            }
            None => self.values.push(Measured {
                name,
                value,
                samples,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.values.iter().find(|m| m.name == name)
    }

    /// Every end-to-end metric in registry order.
    ///
    /// # Errors
    ///
    /// Names the first end-to-end metric the run did not measure.
    pub fn end_to_end_rows(&self) -> Result<Vec<(Measured, &'static str)>, String> {
        END_TO_END
            .iter()
            .map(|m| {
                self.get(m.name)
                    .cloned()
                    .map(|v| (v, m.unit))
                    .ok_or_else(|| format!("end-to-end metric {} was not measured", m.name))
            })
            .collect()
    }

    /// Every per-layer metric in registry order; unmeasured ones (not
    /// applicable to the workload) read 0 with 0 samples.
    pub fn per_layer_rows(&self) -> Vec<(Measured, &'static str)> {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = self.get(m.name).cloned().unwrap_or(Measured {
                    name: m.name,
                    value: 0.0,
                    samples: 0,
                });
                (v, m.unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is registered twice");
            assert!(name.len() <= 64, "{name} is too long");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound out of range",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            text.trim_end(),
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert!(text.len() < 64 * 1024);
        let list = |key: &str| doc.get(key).and_then(|v| v.as_array()).expect(key).to_vec();
        let str_of = |v: &crate::json::Value, key: &str| {
            v.get(key)
                .and_then(|s| s.as_str())
                .unwrap_or_else(|| panic!("{key}"))
                .to_string()
        };
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "why"), want.why);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "unit"), want.unit);
            assert_eq!(str_of(got, "better"), want.better.as_str());
            let bound = got.get("bound").and_then(|b| b.as_f64()).expect("bound");
            assert!(
                (bound - want.bound).abs() < 1e-12,
                "{}: bound differs",
                want.name
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "unit"), want.unit);
            assert_eq!(str_of(got, "better"), want.better.as_str());
        }
    }

    #[test]
    fn metric_set_renders_registry_order_and_fills_gaps() {
        let mut set = MetricSet::new();
        set.set("peak_rss_mb", 12.0, 1);
        assert!(
            set.end_to_end_rows().is_err(),
            "five end-to-end metrics are missing"
        );
        for m in &END_TO_END {
            set.set(m.name, 1.5, 3);
        }
        let rows = set.end_to_end_rows().expect("all measured");
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(rows[0].0.name, "setup_s");
        set.set("server.throttled", 7.0, 1);
        let layers = set.per_layer_rows();
        assert_eq!(layers.len(), PER_LAYER.len());
        let throttled = layers
            .iter()
            .find(|(m, _)| m.name == "server.throttled")
            .expect("row");
        assert_eq!(throttled.0.value, 7.0);
        let spawn = layers
            .iter()
            .find(|(m, _)| m.name == "server.spawn_ms")
            .expect("row");
        assert_eq!((spawn.0.value, spawn.0.samples), (0.0, 0));
    }
}
