//! parafactor benchmark: seeded circuits through the drivers' public
//! entry points and through the TCP service, every output checked.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line holds the end-to-end metrics;
//! with `--trace 1` it holds the per-layer metrics of a traced run. The
//! line before it is a provenance object (seed, threads, input digest,
//! commit, percentiles used, and for traced runs the wall accounting).

mod circuits;
mod drivers;
mod report;
mod serve;
mod stats;

use circuits::Family;
use report::Outcome;
use std::collections::BTreeMap;
use std::time::Duration;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Timed units a run covers even when `--seconds` has passed, so the
/// reported p90 has [`stats::MIN_TAIL`] samples beyond it.
pub const MIN_UNITS: usize = 100;

/// A run stops after this much loop wall even below [`MIN_UNITS`].
pub const HARD_CAP: Duration = Duration::from_secs(120);

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("circuit_ms_p50", "ms"),
    ("circuit_ms_p90", "ms"),
    ("lits_per_s", "lits/s"),
    ("lc_ratio", "ratio"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload (0 where
/// the workload does not reach the layer). Times and counts are means per
/// circuit (per job on `serve_repeat`).
///
/// Which end-to-end metric each layer should move, and where:
///
/// | layer metrics | moves | on |
/// |---|---|---|
/// | `workloads.*` | `setup_s` | all workloads |
/// | `sop.*` | `circuit_ms_p50` | `multilevel_tuned` (little on `pla_scalar`) |
/// | `kcmatrix.build_ms`, `.rows`, `.cols`, `.entries`, `core.matrix_ms` | `circuit_ms_p50` | `multilevel_tuned` |
/// | `kcmatrix.search_*`, `.visited`, `.pruned`, `*_ratio` | `circuit_ms_p50`, `lits_per_s` | `pla_scalar` (scalar), `multilevel_tuned` (tiled) |
/// | `core.apply_*`, `core.extractions`, `core.cover_ms` | `circuit_ms_p50` | `multilevel_tuned`; flat on `pla_scalar` |
/// | `partition.*`, `dist.partition_ms` | `circuit_ms_p50` | `dist_multilevel` only |
/// | `dist.*` | `circuit_ms_p50`, `circuit_ms_p90`, `ok_frac` | `dist_multilevel` |
/// | `network.resub_*`, `network.sweep_ms` | `circuit_ms_p90`, `lc_ratio` | `dist_multilevel` |
/// | `cache.*` | `lits_per_s`, `circuit_ms_p50` | `serve_repeat` |
/// | `serve.*` | `circuit_ms_p90` | `serve_repeat` |
///
/// `network.equiv_ms` is the output check and `trace.*` the accounting
/// of the traced run; neither is on a workload's measured path.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("sop.kernel_ms", "ms"),
    ("sop.kernel_pairs", "count"),
    ("kcmatrix.build_ms", "ms"),
    ("kcmatrix.rows", "count"),
    ("kcmatrix.cols", "count"),
    ("kcmatrix.entries", "count"),
    ("core.matrix_ms", "ms"),
    ("kcmatrix.search_ms", "ms"),
    ("kcmatrix.search_passes", "count"),
    ("kcmatrix.visited", "count"),
    ("kcmatrix.pruned", "count"),
    ("kcmatrix.prune_ratio", "ratio"),
    ("kcmatrix.batch_accept_ratio", "ratio"),
    ("core.apply_ms", "ms"),
    ("core.apply_calls", "count"),
    ("core.apply_us_per_rect", "us"),
    ("core.extractions", "count"),
    ("core.cover_ms", "ms"),
    ("partition.ms", "ms"),
    ("partition.cut", "count"),
    ("partition.imbalance", "ratio"),
    ("dist.partition_ms", "ms"),
    ("dist.extract_ms", "ms"),
    ("dist.merge_ms", "ms"),
    ("dist.frontier_ms", "ms"),
    ("dist.leases_issued", "count"),
    ("dist.failovers", "count"),
    ("dist.stale_results", "count"),
    ("network.resub_ms", "ms"),
    ("network.sweep_ms", "ms"),
    ("network.resub_pairs_considered", "count"),
    ("network.resub_divide_ratio", "ratio"),
    ("network.equiv_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_ms_p50", "ms"),
    ("cache.miss_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "pla_scalar",
    "multilevel_tuned",
    "dist_multilevel",
    "serve_repeat",
];

/// Run parameters shared by every workload.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Measured seconds a run covers (at least).
    pub seconds: f64,
    pub trace: bool,
    /// Distinct circuits (or candidate service specs) a seed names;
    /// `None` takes the workload's own count.
    pub circuits: Option<usize>,
    /// Multiplies every family's scale range (1 in real runs; small in
    /// the smoke test).
    pub scale: f64,
}

impl Opts {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Opts {
            seed,
            seconds,
            trace,
            circuits: None,
            scale: 1.0,
        }
    }

    pub fn scaled(&self, f: Family) -> Family {
        Family {
            scale_lo: f.scale_lo * self.scale,
            scale_hi: f.scale_hi * self.scale,
            ..f
        }
    }
}

/// Milliseconds of a duration, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Appends the end-to-end metrics in [`END_TO_END`] order.
pub fn put_end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    p50: f64,
    p90: f64,
    lits_per_s: f64,
    lc_ratio: f64,
) {
    let ok_frac = 1.0 - stats::ratio(out.failed as f64, out.attempted as f64);
    out.put("setup_s", "s", setup_s);
    out.put("circuit_ms_p50", "ms", p50);
    out.put("circuit_ms_p90", "ms", p90);
    out.put("lits_per_s", "lits/s", lits_per_s);
    out.put("lc_ratio", "ratio", lc_ratio);
    out.put("ok_frac", "ratio", ok_frac);
    out.put(
        "peak_rss_mb",
        "MB",
        report::peak_rss_mb().expect("/proc/self/status reports VmHWM"),
    );
    out.note(
        "percentiles",
        "nearest-rank p50 and p90 of per-circuit times",
    );
}

/// Per-layer sums of a traced run.
///
/// * `timed` layers split the wall of each traced unit: their self times
///   plus `trace.unattributed_ms` add up to `trace.wall_ms`.
/// * `busy` layers are time spent inside a timed layer on other threads.
/// * `probe` layers are the benchmark's own calls into a layer's public
///   functions, outside the timed unit.
#[derive(Default)]
pub struct Layers {
    timed: BTreeMap<&'static str, f64>,
    busy: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    probes: BTreeMap<&'static str, (f64, usize)>,
    extra: BTreeMap<&'static str, f64>,
    wall_ms: f64,
    units: usize,
    pub dropped: u64,
    pub generate_ms: f64,
    /// Traced and untraced p50 on the same inputs; `None` where the
    /// workload has no tracer to arm.
    pub overhead: Option<(f64, f64)>,
}

impl Layers {
    pub fn timed(&mut self, name: &'static str, ms: f64) {
        *self.timed.entry(name).or_default() += ms;
    }
    pub fn busy(&mut self, name: &'static str, ms: f64) {
        *self.busy.entry(name).or_default() += ms;
    }
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }
    pub fn probe(&mut self, name: &'static str, v: f64) {
        let e = self.probes.entry(name).or_default();
        e.0 += v;
        e.1 += 1;
    }
    /// A value computed outside the per-unit sums (percentiles, ratios).
    pub fn extra(&mut self, name: &'static str, v: f64) {
        self.extra.insert(name, v);
    }
    /// Closes one traced unit of `ms` wall.
    pub fn wall(&mut self, ms: f64) {
        self.wall_ms += ms;
        self.units += 1;
    }

    fn per_unit(&self, v: f64) -> f64 {
        stats::ratio(v, self.units as f64)
    }

    fn layer_ms(&self, name: &str) -> f64 {
        let t = self.timed.get(name).copied().unwrap_or(0.0);
        let b = self.busy.get(name).copied().unwrap_or(0.0);
        self.per_unit(t + b)
    }

    fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn probe_mean(&self, name: &str) -> f64 {
        self.probes
            .get(name)
            .map_or(0.0, |&(s, n)| stats::ratio(s, n as f64))
    }

    fn value(&self, name: &'static str) -> f64 {
        if let Some(&v) = self.extra.get(name) {
            return v;
        }
        let attributed: f64 = self.timed.values().sum();
        match name {
            "workloads.generate_ms" => self.generate_ms,
            "sop.kernel_ms" => self.probe_mean("sop.kernel"),
            "kcmatrix.build_ms" => self.probe_mean("kcmatrix.build"),
            "partition.ms" => self.probe_mean("partition"),
            "network.equiv_ms" => self.probe_mean("network.equiv"),
            "sop.kernel_pairs"
            | "kcmatrix.rows"
            | "kcmatrix.cols"
            | "kcmatrix.entries"
            | "partition.cut"
            | "partition.imbalance" => self.probe_mean(name),
            "kcmatrix.prune_ratio" => {
                let pruned = self.counted("kcmatrix.pruned");
                stats::ratio(pruned, pruned + self.counted("kcmatrix.visited"))
            }
            "kcmatrix.batch_accept_ratio" => stats::ratio(
                self.counted("batch.accepted"),
                self.counted("batch.candidates"),
            ),
            "core.apply_us_per_rect" => stats::ratio(
                1e3 * (self.timed.get("core.apply").copied().unwrap_or(0.0)
                    + self.busy.get("core.apply").copied().unwrap_or(0.0)),
                self.counted("core.apply_calls"),
            ),
            "network.resub_divide_ratio" => stats::ratio(
                self.counted("network.resub_pairs_divided"),
                self.counted("network.resub_pairs_considered"),
            ),
            "trace.wall_ms" => self.per_unit(self.wall_ms),
            "trace.unattributed_ms" => self.per_unit(self.wall_ms - attributed),
            "trace.unattributed_frac" => stats::ratio(self.wall_ms - attributed, self.wall_ms),
            "trace.overhead_ratio" => self
                .overhead
                .map_or(0.0, |(traced, plain)| stats::ratio(traced, plain)),
            _ => match name.strip_suffix("_ms") {
                Some(layer) => self.layer_ms(layer),
                None => self.per_unit(self.counted(name)),
            },
        }
    }

    /// Emits every [`PER_LAYER`] metric and the wall accounting note.
    pub fn finish(&self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.put(name, unit, self.value(name));
        }
        let mut acct: Vec<String> = self
            .timed
            .iter()
            .map(|(k, v)| format!("{k}={:.1}%", 100.0 * stats::ratio(*v, self.wall_ms)))
            .collect();
        acct.push(format!(
            "unattributed={:.1}%",
            100.0 * self.value("trace.unattributed_frac")
        ));
        out.note("accounting", acct.join(" "));
        out.note("traced_units", self.units);
        out.note("trace_events_dropped", self.dropped);
        out.note(
            "tracing_overhead",
            match self.overhead {
                Some((traced, plain)) => {
                    format!("traced p50 {traced:.3} ms vs untraced p50 {plain:.3} ms")
                }
                None => "not measured: no tracer is armed in this workload".to_string(),
            },
        );
    }
}

/// Runs `workload` and returns its outcome (metrics, counts, provenance).
pub fn run_workload(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note("workload", workload);
    out.note("seed", opts.seed);
    out.note("trace", u8::from(opts.trace));
    out.note(
        "available_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    match workload {
        "pla_scalar" => drivers::run(drivers::Kind::PlaScalar, opts, &mut out),
        "multilevel_tuned" => drivers::run(drivers::Kind::MultilevelTuned, opts, &mut out),
        "dist_multilevel" => drivers::run(drivers::Kind::DistMultilevel, opts, &mut out),
        "serve_repeat" => serve::run(opts, &mut out)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    }
    Ok(out)
}

fn parse_args() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("--seconds {s} must be a non-negative number"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Opts::new(
            seed.unwrap_or(1),
            seconds.unwrap_or(10.0),
            trace.unwrap_or(false),
        ),
    ))
}

fn main() {
    let (workload, opts) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut out = match run_workload(&workload, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    out.note("commit", report::commit());
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!("{}", out.info_json());
    println!("{}", out.result_json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_serve::json::{parse, Json};

    fn manifest_metrics(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn names(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let doc = manifest();
        assert_eq!(manifest_metrics(&doc, "end_to_end"), names(END_TO_END));
        assert_eq!(manifest_metrics(&doc, "per_layer"), names(PER_LAYER));
        let Some(Json::Arr(w)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        let listed: Vec<&str> = w
            .iter()
            .map(|x| x.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(listed, WORKLOADS);
    }

    /// Every workload, on a few tiny circuits, in both modes: the printed
    /// names and units are exactly the manifest's, and nothing fails.
    #[test]
    fn smoke_every_workload_prints_the_manifest_metrics() {
        let doc = manifest();
        for &w in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    circuits: Some(3),
                    scale: 0.03,
                    ..Opts::new(11, 0.0, trace)
                };
                let out = run_workload(w, &opts).expect("known workload");
                assert_eq!(out.failed, 0, "{w}: {:?}", out.failures);
                let printed = parse(&out.result_json()).expect("result line is JSON");
                let Some(Json::Obj(metrics)) = printed.get("metrics") else {
                    panic!("{w}: no metrics object");
                };
                let got: Vec<(String, String)> = metrics
                    .iter()
                    .map(|(n, m)| {
                        (
                            n.clone(),
                            m.get("unit")
                                .and_then(Json::as_str)
                                .expect("unit")
                                .to_string(),
                        )
                    })
                    .collect();
                let key = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(got, manifest_metrics(&doc, key), "{w} trace={trace}");
            }
        }
    }

    #[test]
    fn quality_and_inputs_repeat_across_runs_and_trace_modes() {
        let opts = Opts {
            circuits: Some(3),
            scale: 0.03,
            ..Opts::new(5, 0.0, false)
        };
        let note = |o: &Outcome, key: &str| {
            o.info
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .expect("provenance note")
        };
        for w in ["multilevel_tuned", "dist_multilevel"] {
            let a = run_workload(w, &opts).expect("runs");
            let b = run_workload(w, &opts).expect("runs");
            let traced = run_workload(
                w,
                &Opts {
                    trace: true,
                    ..opts.clone()
                },
            )
            .expect("runs");
            assert_eq!(a.metric("lc_ratio"), b.metric("lc_ratio"), "{w}");
            assert_eq!(
                note(&a, "lc_ratio").parse().ok(),
                a.metric("lc_ratio"),
                "{w}"
            );
            assert_eq!(note(&a, "lc_ratio"), note(&traced, "lc_ratio"), "{w}");
            assert_eq!(note(&a, "inputs_digest"), note(&b, "inputs_digest"), "{w}");
            assert_eq!(
                note(&a, "inputs_digest"),
                note(&traced, "inputs_digest"),
                "{w}"
            );
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(run_workload("nope", &Opts::new(1, 0.0, false)).is_err());
    }
}
