//! The three driver workloads: circuits go straight into
//! `pf_core::extract_kernels` or `pf_core::distributed_extract`.

use crate::circuits::{generate_set, set_digest, Family};
use crate::report::Outcome;
use crate::stats::{median, percentile, ratio};
use crate::{ms, Layers, Opts, HARD_CAP, MIN_UNITS, SETUP_REPS};
use pf_core::{
    distributed_extract, extract_kernels, DistConfig, DistStats, ExtractConfig, ExtractReport,
    LocalTransport, RunCtl, Trace, Tracer,
};
use pf_kcmatrix::{network_digest, CubeRegistry, Digest, KcMatrix, LabelGen};
use pf_network::sim::{equivalent_random, EquivConfig};
use pf_network::Network;
use pf_partition::{partition_network, PartitionConfig};
use pf_sop::kernel::kernels_config;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A driver call that runs this long is stopped and counted as failed.
const DEADLINE: Duration = Duration::from_secs(30);
/// Workers (and partitions) of the distributed workload.
pub const DIST_WORKERS: usize = 2;
/// Events kept per trace lane: enough that no traced call wraps.
const LANE_CAPACITY: usize = 1 << 18;

/// Which driver a workload calls, and how.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `extract_kernels` with `ExtractConfig::default()`.
    PlaScalar,
    /// `extract_kernels` with the measured-best sequential search.
    MultilevelTuned,
    /// `distributed_extract` over `LocalTransport`, same config.
    DistMultilevel,
}

impl Kind {
    pub fn family(self) -> Family {
        match self {
            Kind::PlaScalar => Family {
                profile: "ex1010",
                scale_lo: 0.15,
                scale_hi: 0.25,
            },
            Kind::MultilevelTuned | Kind::DistMultilevel => Family {
                profile: "dalu",
                scale_lo: 2.0,
                scale_hi: 4.0,
            },
        }
    }

    /// Distinct circuits a seed names: enough that a run's per-circuit
    /// percentiles rest on many different circuits, few enough that all
    /// of them fit in memory at once.
    pub fn circuits(self) -> usize {
        match self {
            Kind::PlaScalar => 200,
            Kind::MultilevelTuned | Kind::DistMultilevel => 100,
        }
    }

    /// Default config everywhere, except the two search fields the tuned
    /// workloads set to the best measured sequential configuration.
    pub fn extract_config(self) -> ExtractConfig {
        let mut cfg = ExtractConfig::default();
        if self != Kind::PlaScalar {
            cfg.search.tile_width = 4;
            cfg.search.topk = 16;
        }
        cfg
    }
}

enum Driver {
    Seq(ExtractConfig),
    Dist(Box<DistConfig>, LocalTransport),
}

struct Call {
    out: Network,
    result: Result<(ExtractReport, Option<DistStats>), String>,
    elapsed: Duration,
    trace: Option<Trace>,
}

impl Driver {
    fn extract_config(&self) -> &ExtractConfig {
        match self {
            Driver::Seq(cfg) => cfg,
            Driver::Dist(cfg, _) => &cfg.extract,
        }
    }

    /// One timed driver call on a copy of `input`. The copy, the config
    /// and the tracer are made before the clock starts.
    fn call(&self, input: &Network, traced: bool) -> Call {
        let mut out = input.clone();
        let mut cfg = self.extract_config().clone();
        cfg.ctl = RunCtl::with_deadline(DEADLINE);
        if traced {
            cfg.trace = Tracer::with_capacity(LANE_CAPACITY);
        }
        let tracer = cfg.trace.clone();
        let (result, elapsed) = match self {
            Driver::Seq(_) => {
                let t = Instant::now();
                let r = catch_unwind(AssertUnwindSafe(|| extract_kernels(&mut out, &[], &cfg)));
                (r.map(|rep| (rep, None)), t.elapsed())
            }
            Driver::Dist(dist, transport) => {
                let dcfg = DistConfig {
                    extract: cfg,
                    ..(**dist).clone()
                };
                let t = Instant::now();
                let r = catch_unwind(AssertUnwindSafe(|| {
                    distributed_extract(&mut out, transport, &dcfg)
                }));
                (r.map(|(rep, st)| (rep, Some(st))), t.elapsed())
            }
        };
        Call {
            out,
            result: result.map_err(panic_message),
            elapsed,
            trace: traced.then(|| tracer.take()),
        }
    }
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    let msg = e
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string());
    format!("driver panicked: {msg}")
}

/// What the first run of each circuit produced; every later run of the
/// same circuit must reproduce it.
#[derive(Clone, Copy)]
struct FirstRun {
    lc_after: usize,
    digest: Digest,
}

/// Checks one call's output; `Some(reason)` marks the circuit failed.
/// The first run of a circuit is simulated against its input (its time
/// goes to `equiv_ms`); later runs must reproduce that output exactly.
fn check(
    input: &Network,
    call: &Call,
    first: &mut Option<FirstRun>,
    equiv_ms: &mut Option<f64>,
) -> Option<String> {
    let (rep, stats) = match &call.result {
        Ok(r) => r,
        Err(e) => return Some(e.clone()),
    };
    if !rep.completed() {
        return Some(format!("did not complete within {DEADLINE:?}"));
    }
    if rep.lc_before != input.literal_count() || rep.lc_after != call.out.literal_count() {
        return Some(format!(
            "report literal counts {}→{} disagree with the networks {}→{}",
            rep.lc_before,
            rep.lc_after,
            input.literal_count(),
            call.out.literal_count()
        ));
    }
    if let Some(st) = stats {
        if !st.balanced() {
            return Some(format!("unbalanced lease ledger: {st:?}"));
        }
    }
    let digest = network_digest(&call.out);
    match first {
        // A repeat must reproduce the first run's output exactly, which
        // also makes it as equivalent to the input as that output is.
        Some(f) if f.lc_after != rep.lc_after || f.digest != digest => {
            return Some(format!(
                "repeat run differs from the first: lc {} vs {}",
                rep.lc_after, f.lc_after
            ))
        }
        Some(_) => {}
        None => {
            let t = Instant::now();
            let equivalent = equivalent_random(input, &call.out, &EquivConfig::default());
            *equiv_ms = Some(ms(t.elapsed()));
            match equivalent {
                Ok(true) => {}
                Ok(false) => return Some("output is not equivalent to the input".into()),
                Err(e) => return Some(format!("equivalence check failed: {e:?}")),
            }
            *first = Some(FirstRun {
                lc_after: rep.lc_after,
                digest,
            });
        }
    }
    None
}

/// Runs one driver workload and fills `out` with its metrics.
pub fn run(kind: Kind, opts: &Opts, out: &mut Outcome) {
    let family = opts.scaled(kind.family());
    let n = opts.circuits.unwrap_or(kind.circuits());

    // Set-up: generate the seeded circuits (and start the dist workers)
    // several times; report the median and keep the last.
    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let circuits = generate_set(&family, opts.seed, n);
        generate.push(ms(t.elapsed()) / n as f64);
        let driver = match kind {
            Kind::DistMultilevel => Driver::Dist(
                Box::new(DistConfig {
                    extract: kind.extract_config(),
                    ..DistConfig::default()
                }),
                LocalTransport::new(DIST_WORKERS),
            ),
            _ => Driver::Seq(kind.extract_config()),
        };
        setup.push(t.elapsed().as_secs_f64());
        built = Some((circuits, driver));
    }
    let (circuits, driver) = built.expect("at least one set-up rep");
    out.note("inputs_digest", set_digest(&circuits));
    out.note("circuits", n);
    out.note(
        "family",
        format!(
            "{}@{}..{}",
            family.profile, family.scale_lo, family.scale_hi
        ),
    );
    out.note(
        "threads",
        if kind == Kind::DistMultilevel {
            1 + DIST_WORKERS
        } else {
            1
        },
    );

    let mut firsts: Vec<Option<FirstRun>> = vec![None; n];
    let mut plain = Vec::new(); // untraced call times, ms
    let mut traced = Vec::new(); // traced call times, ms
    let mut lits = 0usize; // input literals of the untraced calls
    let (mut lc_before, mut lc_after) = (0usize, 0usize);
    let mut layers = Layers::default();
    let mut measured = Duration::ZERO;
    let loop_start = Instant::now();
    let mut k = 0usize;
    while (measured.as_secs_f64() < opts.seconds || k < MIN_UNITS)
        && loop_start.elapsed() < HARD_CAP
    {
        let i = k % n;
        let input = &circuits[i];
        // A traced run times every circuit both ways, alternating which
        // goes first, so the tracing overhead compares identical inputs.
        let order: &[bool] = match (opts.trace, k % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &t in order {
            let call = driver.call(input, t);
            let mut equiv_ms = None;
            let err = check(input, &call, &mut firsts[i], &mut equiv_ms);
            if let Some(e) = equiv_ms {
                layers.probe("network.equiv", e);
            }
            let dt = ms(call.elapsed);
            if t {
                measured += call.elapsed;
                traced.push(dt);
                if let (Some(trace), Ok((rep, stats))) = (&call.trace, &call.result) {
                    account(&mut layers, dt, rep, stats.as_ref(), trace);
                }
            } else {
                if !opts.trace {
                    measured += call.elapsed;
                }
                plain.push(dt);
                lits += input.literal_count();
            }
            if k < MIN_UNITS && !t {
                if let Ok((rep, _)) = &call.result {
                    lc_before += rep.lc_before;
                    lc_after += rep.lc_after;
                }
            }
            out.count(err.map(|e| format!("circuit {i}: {e}")));
        }
        k += 1;
    }
    out.note("units", k);
    // Printed in both modes, so traced and untraced runs (and runs on two
    // commits) can be checked to have produced the same quality.
    out.note("lc_ratio", ratio(lc_after as f64, lc_before as f64));

    if !opts.trace {
        let setup_s = median(&setup);
        let p50 = percentile(&plain, 0.5).expect("a run covers enough circuits for p50");
        let p90 = percentile(&plain, 0.9).expect("a run covers enough circuits for p90");
        let wall_s = plain.iter().sum::<f64>() / 1e3;
        crate::put_end_to_end(
            out,
            setup_s,
            p50,
            p90,
            lits as f64 / wall_s,
            ratio(lc_after as f64, lc_before as f64),
        );
        out.note("samples", plain.len());
        return;
    }

    // Probes: the benchmark's own spans around the public layer calls,
    // on each distinct circuit the run factored (outside the driver).
    layers.generate_ms = median(&generate);
    for nw in circuits.iter().take(k.min(n)) {
        probe(&mut layers, nw, driver.extract_config());
    }
    layers.overhead = Some((
        percentile(&traced, 0.5).expect("traced p50"),
        percentile(&plain, 0.5).expect("untraced p50"),
    ));
    layers.finish(out);
}

/// Splits one traced call's wall into named layers from the driver's
/// own report phases and trace spans; the rest stays unattributed.
fn account(
    layers: &mut Layers,
    wall_ms: f64,
    rep: &ExtractReport,
    stats: Option<&DistStats>,
    trace: &Trace,
) {
    let phase = |name: &str| rep.phase(name).map_or(0.0, ms);
    let (mut search_ns, mut apply_ns) = (0u64, 0u64);
    for e in &trace.events {
        match e.name {
            "search" => {
                search_ns += e.dur_ns;
                layers.count("kcmatrix.search_passes", 1.0);
                for &(k, v) in &e.args {
                    match k {
                        "visited" => layers.count("kcmatrix.visited", v as f64),
                        "pruned" => layers.count("kcmatrix.pruned", v as f64),
                        _ => {}
                    }
                }
            }
            "apply" => {
                apply_ns += e.dur_ns;
                layers.count("core.apply_calls", 1.0);
            }
            _ => {}
        }
    }
    let search = search_ns as f64 / 1e6;
    let apply = apply_ns as f64 / 1e6;
    layers.count("core.extractions", rep.extractions as f64);
    layers.count("batch.candidates", rep.batch_candidates as f64);
    layers.count("batch.accepted", rep.batch_accepted as f64);
    layers.dropped += trace.dropped;
    match stats {
        None => {
            layers.timed("core.matrix", phase("matrix"));
            layers.timed("kcmatrix.search", search);
            layers.timed("core.apply", apply);
            layers.timed(
                "core.cover",
                phase("pool") + phase("cover") - search - apply,
            );
        }
        Some(st) => {
            // Worker search/apply spans overlap in time; they are busy
            // time inside `dist.extract`/`dist.frontier`, not wall.
            layers.busy("kcmatrix.search", search);
            layers.busy("core.apply", apply);
            layers.timed("dist.partition", phase("partition"));
            layers.timed("dist.extract", phase("extract"));
            layers.timed("dist.merge", phase("merge"));
            layers.timed("dist.frontier", phase("frontier"));
            layers.timed("network.resub", phase("resub"));
            layers.timed("network.sweep", phase("sweep"));
            layers.count("dist.leases_issued", st.leases_issued as f64);
            layers.count("dist.failovers", st.failovers as f64);
            layers.count("dist.stale_results", st.stale_results as f64);
            layers.count(
                "network.resub_pairs_considered",
                rep.resub_pairs_considered as f64,
            );
            layers.count(
                "network.resub_pairs_divided",
                rep.resub_pairs_divided as f64,
            );
        }
    }
    layers.wall(wall_ms);
}

/// The benchmark's own calls into the kernel, matrix and partition
/// layers on one circuit.
pub(crate) fn probe(layers: &mut Layers, nw: &Network, cfg: &ExtractConfig) {
    let nodes: Vec<_> = nw.node_ids().collect();
    let t = Instant::now();
    let mut pairs = 0usize;
    for &id in &nodes {
        pairs += kernels_config(nw.func(id), &cfg.kernel).len();
    }
    layers.probe("sop.kernel", ms(t.elapsed()));
    layers.probe("sop.kernel_pairs", pairs as f64);

    let t = Instant::now();
    let registry = CubeRegistry::new();
    let mut matrix = KcMatrix::new();
    let mut rows = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    let mut cols = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    for &id in &nodes {
        matrix.add_node_kernels(
            id,
            nw.func(id),
            &cfg.kernel,
            &registry,
            &mut rows,
            &mut cols,
        );
    }
    layers.probe("kcmatrix.build", ms(t.elapsed()));
    layers.probe("kcmatrix.rows", matrix.num_alive_rows() as f64);
    layers.probe("kcmatrix.cols", matrix.cols().len() as f64);
    layers.probe("kcmatrix.entries", matrix.num_entries() as f64);

    let t = Instant::now();
    let part = partition_network(nw, DIST_WORKERS, &PartitionConfig::default());
    layers.probe("partition", ms(t.elapsed()));
    let w = part.part_weights();
    let total: u64 = w.iter().sum();
    let heaviest = w.iter().copied().max().unwrap_or(0);
    layers.probe("partition.cut", part.cut as f64);
    layers.probe(
        "partition.imbalance",
        ratio(heaviest as f64 * w.len() as f64, total as f64),
    );
}
