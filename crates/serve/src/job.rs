//! Job types: what a client submits and what it gets back.

use crate::json::Json;
use pf_core::{ExtractReport, RunCtl};
use pf_kcmatrix::{Digest, DigestBuilder};
use pf_network::Network;
use std::time::Duration;

/// Which extraction driver a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sequential baseline (SIS `gkx` equivalent).
    Seq,
    /// Algorithm R — replicated circuit, striped search.
    Replicated,
    /// Algorithm I — independent partitions.
    Independent,
    /// Algorithm L — L-shaped partitioning with interactions.
    Lshaped,
}

/// All algorithms, in wire order.
pub const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Seq,
    Algorithm::Replicated,
    Algorithm::Independent,
    Algorithm::Lshaped,
];

impl Algorithm {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Algorithm::Seq => "seq",
            Algorithm::Replicated => "replicated",
            Algorithm::Independent => "independent",
            Algorithm::Lshaped => "lshaped",
        }
    }

    /// Index into [`ALGORITHMS`] (and the per-algorithm metrics array).
    pub fn index(self) -> usize {
        match self {
            Algorithm::Seq => 0,
            Algorithm::Replicated => 1,
            Algorithm::Independent => 2,
            Algorithm::Lshaped => 3,
        }
    }

    /// Parses a wire name.
    pub fn from_wire(name: &str) -> Option<Self> {
        match name {
            "seq" => Some(Algorithm::Seq),
            "replicated" => Some(Algorithm::Replicated),
            "independent" => Some(Algorithm::Independent),
            "lshaped" => Some(Algorithm::Lshaped),
            _ => None,
        }
    }
}

/// A factorization job as submitted.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Which driver to run.
    pub algorithm: Algorithm,
    /// Workload spec: `gen:<profile>[@scale]` (synthetic circuit) — the
    /// same grammar the CLI input accepts.
    pub workload: String,
    /// Processors / partitions for the parallel drivers (ignored by
    /// `seq`). Validated against the host's parallelism at submit time.
    pub procs: usize,
    /// Intra-matrix rectangle-search threads per driver worker
    /// (`SearchConfig::par_threads`). `0` keeps the classic sequential
    /// search. Clamped to the host's parallelism at submit time.
    pub par_threads: usize,
    /// Rectangles collected per search pass (`SearchConfig::topk`).
    /// `1` keeps the classic one-rectangle-per-pass engine; larger
    /// values enable conflict-aware batching. Result-affecting, unlike
    /// `par_threads`, so it participates in the cache key.
    pub batch_rects: usize,
    /// Per-job deadline; expiry (including time spent queued) turns the
    /// job into a structured timeout response.
    pub deadline: Option<Duration>,
    /// Delta submission: the [`JobSpec::fingerprint`] of a previously
    /// completed (and cached) base job this workload is a revision of.
    /// The worker re-extracts only the cones that differ from the base
    /// and splices the base's cached factored cones for the rest.
    /// `seq` only; `None` is a plain full submission.
    pub delta_from: Option<String>,
}

impl JobSpec {
    /// A seq job for `workload` with service defaults elsewhere.
    pub fn new(algorithm: Algorithm, workload: impl Into<String>) -> Self {
        JobSpec {
            algorithm,
            workload: workload.into(),
            procs: 2,
            par_threads: 0,
            batch_rects: 1,
            deadline: None,
            delta_from: None,
        }
    }

    /// The job's poison-tracking identity: what it *computes*
    /// (algorithm + workload), not how (procs/deadline). Two specs with
    /// the same fingerprint crash workers the same way, which is what
    /// quarantine keys on. Human-readable — used in failure messages and
    /// fault-site names; [`JobSpec::poison_key`] is the keyed form.
    pub fn fingerprint(&self) -> String {
        format!("{}/{}", self.algorithm.as_str(), self.workload)
    }

    /// The fingerprint as a canonical [`Digest`] — the *one* keying
    /// implementation shared by the quarantine map, the extraction
    /// cache, and any future shard routing, so the three can never
    /// disagree about job identity.
    pub fn poison_key(&self) -> Digest {
        fingerprint_digest(self.algorithm, &self.workload)
    }

    /// The result-affecting execution parameters of this spec, as a
    /// digest. Combined with the resolved network's content digest this
    /// forms the exact-hit cache key: algorithm always matters, `procs`
    /// only for the parallel drivers (`seq` ignores it), and
    /// `par_threads` / `deadline` are result-invariant
    /// per the repo's determinism tests (a timed-out run is never
    /// admitted anyway).
    /// `batch_rects` *is* result-affecting (batched extraction may pick
    /// a slightly different cover), so any K > 1 gets its own key —
    /// keyed only when > 1 so existing K=1 cache entries stay valid.
    pub fn cache_param_digest(&self) -> Digest {
        let mut b = DigestBuilder::new();
        b.write_str("cache-key");
        b.write_str(self.algorithm.as_str());
        if self.algorithm != Algorithm::Seq {
            b.write_u64(self.procs as u64);
        }
        if self.batch_rects > 1 {
            b.write_str("batch-rects");
            b.write_u64(self.batch_rects as u64);
        }
        b.finish()
    }
}

/// [`JobSpec::poison_key`] for an (algorithm, workload) pair — exposed
/// so `delta_from` fingerprints can be resolved to the base job's keys
/// without constructing a full spec.
pub fn fingerprint_digest(algorithm: Algorithm, workload: &str) -> Digest {
    let mut b = DigestBuilder::new();
    b.write_str("job-fingerprint");
    b.write_str(algorithm.as_str());
    b.write_str(workload);
    b.finish()
}

/// Why a submission was turned away at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded queue is at capacity: backpressure.
    QueueFull {
        /// Configured capacity the queue was at.
        capacity: usize,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The spec itself is invalid (bad algorithm, bad workload grammar,
    /// bad procs).
    Invalid(String),
    /// This job's fingerprint has killed worker threads (or panicked)
    /// repeatedly; the service refuses to run it again.
    Quarantined {
        /// How many worker-fatal runs the fingerprint has on record.
        strikes: u32,
    },
}

impl Rejection {
    /// Stable machine-readable reason.
    pub fn reason(&self) -> &'static str {
        match self {
            Rejection::QueueFull { .. } => "queue_full",
            Rejection::ShuttingDown => "shutting_down",
            Rejection::Invalid(_) => "invalid",
            Rejection::Quarantined { .. } => "quarantined",
        }
    }

    /// Whether a client should retry this rejection (with backoff).
    /// Only backpressure is retryable; the other reasons are terminal.
    pub fn retryable(&self) -> bool {
        matches!(self, Rejection::QueueFull { .. })
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            Rejection::ShuttingDown => write!(f, "service is shutting down"),
            Rejection::Invalid(msg) => write!(f, "invalid job: {msg}"),
            Rejection::Quarantined { strikes } => {
                write!(f, "job quarantined after {strikes} worker-fatal runs")
            }
        }
    }
}

/// How a job ended.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Ran to completion.
    Completed(JobReport),
    /// Stopped at the deadline; partial results are in the report.
    TimedOut(JobReport),
    /// Cancelled by shutdown before (or while) running.
    Drained,
    /// The worker panicked running the job; the pool survives.
    Failed {
        /// Panic payload rendered to text.
        message: String,
    },
}

impl JobOutcome {
    /// Stable machine-readable status.
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Completed(_) => "completed",
            JobOutcome::TimedOut(_) => "timed_out",
            JobOutcome::Drained => "drained",
            JobOutcome::Failed { .. } => "failed",
        }
    }
}

/// Per-job measurements returned with every completed (or timed-out)
/// job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The extraction report of the run.
    pub report: ExtractReport,
    /// Time the job sat in the queue before a worker picked it up.
    pub queue_wait: Duration,
    /// Wall-clock of the run itself (workload generation + extraction).
    pub run_time: Duration,
}

impl JobReport {
    /// Renders the per-job metrics object for a wire response.
    pub fn to_json(&self) -> Json {
        let r = &self.report;
        Json::obj([
            ("lc_before", Json::u64(r.lc_before as u64)),
            ("lc_after", Json::u64(r.lc_after as u64)),
            ("saved", Json::num(r.saved() as f64)),
            ("extractions", Json::u64(r.extractions as u64)),
            (
                "queue_wait_us",
                Json::u64(self.queue_wait.as_micros() as u64),
            ),
            ("run_us", Json::u64(self.run_time.as_micros() as u64)),
            (
                "phases",
                Json::Obj(
                    r.phases
                        .iter()
                        .map(|p| (p.name.to_string(), Json::u64(p.elapsed.as_micros() as u64)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One finished job's timeline entry, kept in the service's last-N ring
/// and returned by the `trace` wire verb: who ran, how it ended, and
/// where the time went (the driver's per-phase breakdown).
#[derive(Clone, Debug)]
pub struct JobTimeline {
    /// Service-assigned job id.
    pub id: u64,
    /// Which driver ran.
    pub algorithm: Algorithm,
    /// The workload spec as submitted.
    pub workload: String,
    /// Outcome status (`completed` / `timed_out` / `drained` / `failed`).
    pub status: &'static str,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Wall-clock of the run (zero for jobs that never ran).
    pub run_time: Duration,
    /// The driver's phase breakdown, in execution order (empty for jobs
    /// that never produced a report).
    pub phases: Vec<(&'static str, Duration)>,
}

impl JobTimeline {
    /// Renders one timeline entry for the `trace` response.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::u64(self.id)),
            ("algorithm", Json::str(self.algorithm.as_str())),
            ("workload", Json::str(self.workload.clone())),
            ("status", Json::str(self.status)),
            (
                "queue_wait_us",
                Json::u64(self.queue_wait.as_micros() as u64),
            ),
            ("run_us", Json::u64(self.run_time.as_micros() as u64)),
            (
                "phases",
                Json::Obj(
                    self.phases
                        .iter()
                        .map(|(n, d)| (n.to_string(), Json::u64(d.as_micros() as u64)))
                        .collect(),
                ),
            ),
        ])
    }
}

fn parse_workload(spec: &str) -> Result<(pf_workloads::CircuitProfile, f64), String> {
    let Some(genspec) = spec.strip_prefix("gen:") else {
        return Err(format!(
            "workload {spec:?} not recognized (expected gen:<profile>[@scale])"
        ));
    };
    let (name, scale) = match genspec.split_once('@') {
        Some((n, s)) => (n, s.parse::<f64>().map_err(|_| format!("bad scale {s:?}"))?),
        None => (genspec, 0.25),
    };
    if !(scale > 0.0 && scale <= 4.0) {
        return Err(format!("scale {scale} out of range (0, 4]"));
    }
    let profile =
        pf_workloads::profile_by_name(name).ok_or_else(|| format!("unknown profile {name:?}"))?;
    Ok((profile, scale))
}

/// Checks the workload grammar without generating the circuit — cheap
/// enough to run at submit time, so bad specs are rejected at the door
/// instead of wasting a worker.
pub fn validate_workload(spec: &str) -> Result<(), String> {
    parse_workload(spec).map(|_| ())
}

/// Resolves a workload spec into a circuit. `gen:<profile>[@scale]`
/// generates a synthetic circuit; anything else is an error (the service
/// does not read files on behalf of remote clients).
pub fn resolve_workload(spec: &str) -> Result<Network, String> {
    let (profile, scale) = parse_workload(spec)?;
    Ok(pf_workloads::generate(&pf_workloads::scale_profile(
        &profile, scale,
    )))
}

/// Builds the shared stop-control handle for a job: deadline if the spec
/// has one, plain (cancel-only) otherwise.
pub fn ctl_for(spec: &JobSpec) -> RunCtl {
    match spec.deadline {
        Some(d) => RunCtl::with_deadline(d),
        None => RunCtl::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_round_trip() {
        for alg in ALGORITHMS {
            assert_eq!(Algorithm::from_wire(alg.as_str()), Some(alg));
        }
        assert_eq!(Algorithm::from_wire("nonsense"), None);
    }

    #[test]
    fn algorithm_index_matches_wire_order() {
        for (i, alg) in ALGORITHMS.iter().enumerate() {
            assert_eq!(alg.index(), i);
        }
    }

    #[test]
    fn fingerprint_ignores_procs_and_deadline() {
        let mut a = JobSpec::new(Algorithm::Lshaped, "gen:dalu@0.2");
        let mut b = a.clone();
        a.procs = 2;
        b.procs = 8;
        b.deadline = Some(Duration::from_secs(1));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), "lshaped/gen:dalu@0.2");
        assert_ne!(
            a.fingerprint(),
            JobSpec::new(Algorithm::Seq, "gen:dalu@0.2").fingerprint()
        );
    }

    #[test]
    fn poison_key_is_the_shared_fingerprint_digest() {
        let mut a = JobSpec::new(Algorithm::Lshaped, "gen:dalu@0.2");
        let mut b = a.clone();
        a.procs = 2;
        b.procs = 8;
        b.deadline = Some(Duration::from_secs(1));
        assert_eq!(a.poison_key(), b.poison_key());
        assert_eq!(
            a.poison_key(),
            fingerprint_digest(Algorithm::Lshaped, "gen:dalu@0.2")
        );
        assert_ne!(
            a.poison_key(),
            fingerprint_digest(Algorithm::Seq, "gen:dalu@0.2")
        );
    }

    #[test]
    fn cache_params_track_procs_only_for_parallel_drivers() {
        let mut seq = JobSpec::new(Algorithm::Seq, "gen:dalu@0.2");
        let mut seq8 = seq.clone();
        seq.procs = 2;
        seq8.procs = 8;
        assert_eq!(seq.cache_param_digest(), seq8.cache_param_digest());
        let mut rep = JobSpec::new(Algorithm::Replicated, "gen:dalu@0.2");
        let mut rep8 = rep.clone();
        rep.procs = 2;
        rep8.procs = 8;
        assert_ne!(rep.cache_param_digest(), rep8.cache_param_digest());
        assert_ne!(seq.cache_param_digest(), rep.cache_param_digest());
    }

    #[test]
    fn cache_params_track_batch_rects_for_every_driver() {
        // K=1 must hash like a spec that predates the field (cache
        // entries from classic runs stay valid); any K>1 is its own key.
        for alg in ALGORITHMS {
            let classic = JobSpec::new(alg, "gen:dalu@0.2");
            let mut k1 = classic.clone();
            k1.batch_rects = 1;
            assert_eq!(classic.cache_param_digest(), k1.cache_param_digest());
            let mut k4 = classic.clone();
            k4.batch_rects = 4;
            let mut k16 = classic.clone();
            k16.batch_rects = 16;
            assert_ne!(classic.cache_param_digest(), k4.cache_param_digest());
            assert_ne!(k4.cache_param_digest(), k16.cache_param_digest());
            // Fingerprint (poison identity) still ignores it.
            assert_eq!(classic.fingerprint(), k16.fingerprint());
        }
    }

    #[test]
    fn only_backpressure_is_retryable() {
        assert!(Rejection::QueueFull { capacity: 4 }.retryable());
        for terminal in [
            Rejection::ShuttingDown,
            Rejection::Invalid("x".into()),
            Rejection::Quarantined { strikes: 2 },
        ] {
            assert!(!terminal.retryable(), "{terminal:?}");
        }
        assert_eq!(
            Rejection::Quarantined { strikes: 2 }.reason(),
            "quarantined"
        );
    }

    #[test]
    fn workload_resolution() {
        let nw = resolve_workload("gen:misex3@0.05").unwrap();
        assert!(nw.literal_count() > 0);
        assert!(resolve_workload("gen:nosuch@0.1").is_err());
        assert!(resolve_workload("file.blif").is_err());
        assert!(resolve_workload("gen:misex3@0").is_err());
        assert!(resolve_workload("gen:misex3@nan").is_err());
    }

    #[test]
    fn job_report_json_has_the_metrics_keys() {
        let jr = JobReport {
            report: ExtractReport {
                lc_before: 100,
                lc_after: 80,
                extractions: 4,
                ..Default::default()
            },
            queue_wait: Duration::from_micros(120),
            run_time: Duration::from_millis(3),
        };
        let j = jr.to_json();
        assert_eq!(j.get("saved").and_then(Json::as_f64), Some(20.0));
        assert_eq!(j.get("queue_wait_us").and_then(Json::as_u64), Some(120));
        assert_eq!(j.get("run_us").and_then(Json::as_u64), Some(3000));
        assert!(j.get("phases").is_some());
    }

    #[test]
    fn ctl_for_respects_deadline() {
        let mut spec = JobSpec::new(Algorithm::Seq, "gen:misex3@0.05");
        assert!(ctl_for(&spec).deadline().is_none());
        spec.deadline = Some(Duration::ZERO);
        assert!(ctl_for(&spec).deadline_expired());
    }
}
