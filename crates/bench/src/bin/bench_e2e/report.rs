//! The metric catalogue (names, units, directions, bounds — the same
//! table `BENCHMARK.json` holds) and one run's report.

use crate::json::Json;
use crate::stats::Better;

/// An end-to-end metric: what a user of the system sees.
pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A metric of one layer. Layers carry no bound.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> E2eMetric {
    E2eMetric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric { name, unit, better }
}

use Better::{Higher, Lower};

pub const END_TO_END: [E2eMetric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_ms_p50", "ms", Lower, 0.1),
    e2e("latency_ms_p90", "ms", Lower, 0.1),
    e2e("jobs_per_s", "1/s", Higher, 0.1),
    e2e("hpwl_increase_pct", "%", Lower, 0.01),
    e2e("move_avg_rows", "rows", Lower, 0.01),
    e2e("move_max_rows", "rows", Lower, 0.01),
    e2e("peak_rss_mb", "MiB", Lower, 0.1),
];

/// The layers of the benchmarked (batch) workloads; `BENCHMARK.json`
/// lists these. The service workload reports them too, from its sampled
/// in-process re-runs.
pub const PER_LAYER: [LayerMetric; 29] = [
    layer("core.advect.calls", "count", Lower),
    layer("core.advect.ms", "ms", Lower),
    layer("core.advect.ns_per_cell", "ns", Lower),
    layer("core.advect.bytes_per_call", "B", Lower),
    layer("place.splat.calls", "count", Lower),
    layer("place.splat.ms", "ms", Lower),
    layer("place.splat.ns_per_cell", "ns", Lower),
    layer("core.field.calls", "count", Lower),
    layer("core.field.ms", "ms", Lower),
    layer("core.dct_forward.ms", "ms", Lower),
    layer("core.dct_inverse.ms", "ms", Lower),
    layer("core.ftcs.ns_per_bin", "ns", Lower),
    layer("core.ftcs.bytes_per_call", "B", Lower),
    layer("core.velocity.calls", "count", Lower),
    layer("core.velocity.ms", "ms", Lower),
    layer("core.velocity.ns_per_bin", "ns", Lower),
    layer("core.velocity.bytes_per_call", "B", Lower),
    layer("core.windows.us", "us", Lower),
    layer("core.manipulate.ms", "ms", Lower),
    layer("core.steps", "count", Lower),
    layer("core.rounds", "count", Lower),
    layer("core.converged_frac", "ratio", Higher),
    layer("core.overflow_max", "density", Lower),
    layer("legalize.detailed.ms", "ms", Lower),
    layer("legalize.check.ms", "ms", Lower),
    layer("core.residual.ms", "ms", Lower),
    layer("job.residual.ms", "ms", Lower),
    layer("ledger.coverage", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// The wire, control-plane and load-generator layers, which only the
/// service workload runs.
pub const SERVICE_LAYERS: [LayerMetric; 28] = [
    layer("wire.encode_request.us", "us", Lower),
    layer("wire.decode_request.us", "us", Lower),
    layer("wire.encode_delta.us", "us", Lower),
    layer("wire.decode_delta.us", "us", Lower),
    layer("wire.encode_response.us", "us", Lower),
    layer("wire.decode_response.us", "us", Lower),
    layer("serve.delta_apply.us", "us", Lower),
    layer("wire.full_request_bytes", "B", Lower),
    layer("wire.delta_request_bytes", "B", Lower),
    layer("ctl.queue_wait_ms.p50", "ms", Lower),
    layer("ctl.queue_wait_ms.p90", "ms", Lower),
    layer("ctl.service_ms.p50", "ms", Lower),
    layer("ctl.service_ms.p90", "ms", Lower),
    layer("ctl.front_ms.p50", "ms", Lower),
    layer("ctl.front_ms.p90", "ms", Lower),
    layer("ctl.tick_ms.p50", "ms", Lower),
    layer("ctl.tick_ms.p90", "ms", Lower),
    layer("ctl.cache_hits", "count", Higher),
    layer("ctl.need_design", "count", Lower),
    layer("ctl.put_designs", "count", Lower),
    layer("ctl.delta_requests", "count", Higher),
    layer("ctl.rejected", "count", Lower),
    layer("ctl.cache_hit_ratio", "ratio", Higher),
    layer("serve.full.latency_ms_p50", "ms", Lower),
    layer("serve.delta.latency_ms_p50", "ms", Lower),
    layer("serve.put.latency_ms_p50", "ms", Lower),
    layer("loadgen.late_ms_max", "ms", Lower),
    layer("loadgen.outstanding_max", "count", Lower),
];

fn e2e_metric(name: &str) -> Option<&'static E2eMetric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The catalogue's own copy of `name`, if it is a catalogue metric.
fn catalogue_name(name: &str) -> Option<&'static str> {
    e2e_metric(name).map(|m| m.name).or_else(|| {
        PER_LAYER
            .iter()
            .chain(&SERVICE_LAYERS)
            .find(|m| m.name == name)
            .map(|m| m.name)
    })
}

/// One metric of an output line.
pub struct Selected {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed window (jobs or requests).
    pub attempted: u64,
    /// Attempts that failed a correctness check, were rejected, or hit a
    /// transport error.
    pub failed: u64,
    /// Latency samples behind the reported percentiles.
    pub latency_samples: usize,
    /// The run's calibration: median reference-kernel time (ns) and the
    /// factor its timings were scaled by.
    pub calibration: Option<(f64, f64)>,
    /// Timings and rates as measured, before scaling to the reference
    /// speed.
    pub raw: Vec<(&'static str, f64)>,
    /// Problems found by checks outside the per-operation count (a
    /// traced placement that differs from the untraced one, a sampled
    /// service reply that differs from an in-process run).
    pub problems: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records `value` for the catalogue metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue — a typo in the bench.
    pub fn set(&mut self, name: &str, value: f64) {
        let key =
            catalogue_name(name).unwrap_or_else(|| panic!("{name} is not a catalogue metric"));
        match self.values.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.values.push((key, value)),
        }
    }

    /// Records a value scaled to the reference speed, keeping the value
    /// as measured for the detail line.
    pub fn set_scaled(&mut self, name: &str, scaled: f64, raw: f64) {
        self.set(name, scaled);
        self.raw
            .push((catalogue_name(name).expect("set checked it"), raw));
    }

    /// The calibration and raw values behind the scaled ones.
    pub fn detail_json(&self) -> Json {
        let (median_ns, factor) = self.calibration.unwrap_or((f64::NAN, 1.0));
        Json::obj([
            ("calibration_ns", Json::Num(median_ns)),
            ("factor", Json::Num(factor)),
            ("latency_samples", Json::Num(self.latency_samples as f64)),
            (
                "raw",
                Json::obj(self.raw.iter().map(|&(k, v)| (k, Json::Num(v)))),
            ),
        ])
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }

    /// Whether every check passed: nothing failed, no problem was
    /// found, and every reported value is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.values.iter().all(|(_, v)| v.is_finite())
    }

    /// The metrics one output line carries: every end-to-end metric, or
    /// with `traced` every per-layer metric, followed by the service
    /// layers the run measured. A layer of [`PER_LAYER`] the workload does
    /// not exercise reads 0. A missing end-to-end value is NaN, which
    /// [`correct`](Self::correct) does not see but the caller reports.
    pub fn selected(&self, traced: bool) -> Vec<Selected> {
        let value = |name: &str, default: f64| self.get(name).unwrap_or(default);
        if traced {
            let measured = SERVICE_LAYERS.iter().filter(|m| self.get(m.name).is_some());
            PER_LAYER
                .iter()
                .chain(measured)
                .map(|m| Selected {
                    name: m.name,
                    unit: m.unit,
                    better: m.better,
                    value: value(m.name, 0.0),
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| Selected {
                    name: m.name,
                    unit: m.unit,
                    better: m.better,
                    value: value(m.name, f64::NAN),
                })
                .collect()
        }
    }

    /// The result object the benchmark prints as its last line.
    pub fn to_json(&self, traced: bool) -> Json {
        let selected = self.selected(traced);
        let correct = self.correct() && selected.iter().all(|m| m.value.is_finite());
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(selected.into_iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root says how the benchmark
    /// is run and judged; it must name exactly this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let expected: Vec<&str> = crate::workload::Workload::BENCHMARKED
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn result_line_carries_the_selected_catalogue() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for m in &END_TO_END {
            r.set(m.name, 1.5);
        }
        r.set("core.advect.ms", 2.0);
        let e2e = r.to_json(false);
        assert_eq!(e2e.get("correct"), Some(&Json::Bool(true)));
        let metrics = e2e
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let layers = r.to_json(true);
        let metrics = layers
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), PER_LAYER.len());
        let advect = layers
            .get("metrics")
            .and_then(|m| m.get("core.advect.ms"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(advect, Some(2.0));

        // A service layer is carried only once measured.
        r.set("ctl.cache_hits", 7.0);
        let layers = r.to_json(true);
        let metrics = layers
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), PER_LAYER.len() + 1);

        // A missing end-to-end value makes the run incorrect.
        let partial = Report::default();
        assert_eq!(
            partial.to_json(false).get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
