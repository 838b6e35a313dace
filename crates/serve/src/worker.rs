//! Job execution: one queued job → one [`JobOutcome`], with panic
//! isolation so a bad job can never take a pool thread down with it.

use crate::job::{resolve_workload, Algorithm, JobOutcome, JobReport, JobSpec};
use pf_cache::{delta, ExtractionCache};
use pf_core::{
    independent_extract, lshaped_extract, replicated_extract, CacheEvents, CacheHandle,
    ExtractConfig, ExtractReport, IndependentConfig, LShapedConfig, PhaseTiming, ReplicatedConfig,
    RunCtl, SearchPool,
};
use pf_kcmatrix::network_digest;
use pf_network::{Network, SignalId};
use std::time::Instant;

/// The shared cache plus this job's admission decision, as resolved by
/// the caller (the supervisor clears `admit` once a fingerprint has any
/// poison strikes, so a quarantine-bound job can never seed the cache).
pub struct CacheCtx<'a> {
    /// The service's shared extraction cache.
    pub cache: &'a ExtractionCache,
    /// Whether a completed result may be admitted.
    pub admit: bool,
}

/// What the cache did for one executed job; the supervisor folds this
/// into the service metrics. All-zero when no cache was attached.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheOutcome {
    /// Lookup / hit / miss / eviction / warm-start events.
    pub events: CacheEvents,
    /// Whether a delta splice was actually applied (base resolved and
    /// clean cones spliced — full-run fallbacks don't count).
    pub delta: bool,
}

/// Runs the extraction a spec describes, observing `ctl` at the
/// driver's barrier points. Blocking; returns the driver's report plus
/// the cache activity it caused.
///
/// `pool` is this worker thread's resident [`SearchPool`] slot: a
/// `Seq` job with `par_threads ≥ 1` adopts the pool left by the
/// previous job (warmed threads, retained scratch) and hands it back
/// when done. Other algorithms own their pools per run (their engines
/// live on driver-spawned threads), so the slot passes through
/// untouched.
///
/// With a [`CacheCtx`] attached, the job is keyed by its parameter
/// digest combined with the generated network's content digest — two
/// workload strings that generate the same network share entries. An
/// exact hit replays the memoized result; a miss runs cold (warm-started
/// for `Seq` when hints are resident) and, when admissible, memoizes.
pub fn run_extraction(
    spec: &JobSpec,
    ctl: &RunCtl,
    pool: &mut Option<SearchPool>,
    cache: Option<&CacheCtx<'_>>,
) -> Result<(ExtractReport, CacheOutcome), String> {
    let mut nw = resolve_workload(&spec.workload)?;
    let mut extract = ExtractConfig {
        ctl: ctl.clone(),
        ..ExtractConfig::default()
    };
    extract.search.par_threads = spec.par_threads;
    extract.search.topk = spec.batch_rects.max(1);
    let handle = cache.map(|c| {
        let content = network_digest(&nw);
        CacheHandle {
            cache: c.cache,
            key: spec.cache_param_digest().combine(content),
            warm_key: content,
            admit: c.admit,
        }
    });

    if let (Some(h), Some(base)) = (handle.as_ref(), spec.delta_from.as_deref()) {
        // Seq-only, enforced at submit time.
        if let Some((report, events)) = run_delta(base, &mut nw, &extract, pool, h) {
            return Ok((
                report,
                CacheOutcome {
                    events,
                    delta: true,
                },
            ));
        }
        // Base not cached (or structurally unusable as a base): fall
        // through to a full cold run, which *is* admissible.
    }

    let trace = extract.trace.clone();
    let (report, events) = match spec.algorithm {
        Algorithm::Seq => {
            pf_core::extract_kernels_cached(&mut nw, &[], &extract, pool, handle.as_ref())
        }
        Algorithm::Replicated => pf_core::run_cached(&mut nw, &trace, handle.as_ref(), |nw| {
            replicated_extract(
                nw,
                &ReplicatedConfig {
                    procs: spec.procs,
                    extract,
                    ..ReplicatedConfig::default()
                },
            )
        }),
        Algorithm::Independent => pf_core::run_cached(&mut nw, &trace, handle.as_ref(), |nw| {
            independent_extract(
                nw,
                &IndependentConfig {
                    procs: spec.procs,
                    extract,
                    ..IndependentConfig::default()
                },
            )
        }),
        Algorithm::Lshaped => pf_core::run_cached(&mut nw, &trace, handle.as_ref(), |nw| {
            lshaped_extract(
                nw,
                &LShapedConfig {
                    procs: spec.procs,
                    extract,
                    ..LShapedConfig::default()
                },
            )
        }),
    };
    Ok((
        report,
        CacheOutcome {
            events,
            delta: false,
        },
    ))
}

/// The delta-submit path: serve an exact hit if the *new* network is
/// already cached; otherwise resolve the base job's cached result,
/// splice its factored clean cones into the new network, and re-extract
/// only the dirty cones. Returns `None` — full cold run, please — when
/// the base isn't cached or the splice is structurally impossible.
///
/// Spliced results are *never* admitted to the exact cache: they are
/// functionally equivalent to, but not byte-identical with, a cold run
/// of the new network, and the exact cache promises byte identity.
fn run_delta(
    base_fp: &str,
    nw: &mut Network,
    extract: &ExtractConfig,
    pool: &mut Option<SearchPool>,
    handle: &CacheHandle<'_>,
) -> Option<(ExtractReport, CacheEvents)> {
    let started = Instant::now();
    let mut events = CacheEvents {
        lookups: 1,
        ..Default::default()
    };
    if let Some(report) = pf_core::try_replay(nw, &extract.trace, handle) {
        events.hits = 1;
        return Some((report, events));
    }
    events.misses = 1;

    // Resolve the base fingerprint to its cached extraction. The base
    // network is regenerated only to compute its content digest — cheap
    // next to an extraction run.
    let base_workload = base_fp.strip_prefix("seq/").unwrap_or(base_fp);
    let base_nw = resolve_workload(base_workload).ok()?;
    let base_key = JobSpec::new(Algorithm::Seq, base_workload)
        .cache_param_digest()
        .combine(network_digest(&base_nw));
    events.lookups += 1;
    let base = match handle.cache.lookup(&base_key) {
        Some(b) => {
            events.hits += 1;
            b
        }
        None => return None,
    };

    let plan = delta::classify(&base, nw).ok()?;
    let lc_before = nw.literal_count();
    *nw = delta::splice(&base.network, nw, &plan).ok()?;
    let targets: Vec<SignalId> = plan.dirty.iter().filter_map(|n| nw.find(n)).collect();
    let splice_time = started.elapsed();

    // An empty target list means "everything" to the extractor, so a
    // fully-clean delta must skip the run outright.
    let mut report = if targets.is_empty() {
        ExtractReport {
            lc_after: nw.literal_count(),
            ..Default::default()
        }
    } else {
        pf_core::extract_kernels_pooled(nw, &targets, extract, pool)
    };
    // The report describes the whole delta job: cost starts at the
    // pristine new network (the splice already banked the base's
    // factoring), and the classify+splice work is its own phase so the
    // phases still sum to the elapsed total.
    report.lc_before = lc_before;
    report
        .phases
        .insert(0, PhaseTiming::new("splice", splice_time));
    report.elapsed += splice_time;
    Some((report, events))
}

/// Runs one job start-to-finish and classifies the outcome. `queue_wait`
/// is how long the job sat queued (measured by the caller, who owns the
/// accept timestamp). Panics inside the extraction are caught and become
/// [`JobOutcome::Failed`].
pub fn execute(spec: &JobSpec, ctl: &RunCtl, queue_wait: std::time::Duration) -> JobOutcome {
    execute_tracked(spec, ctl, queue_wait, &mut None, None).0
}

/// [`execute`], additionally reporting whether the extraction *panicked*
/// (as opposed to failing structurally) — the supervisor uses this to
/// put a poison strike on the job's fingerprint — and what the cache did
/// for the job. A panicking job reports all-zero cache activity; its
/// admission never happened (the cache is filled atomically, after the
/// run completes), so no partial entry can survive the unwind.
pub fn execute_tracked(
    spec: &JobSpec,
    ctl: &RunCtl,
    queue_wait: std::time::Duration,
    pool: &mut Option<SearchPool>,
    cache: Option<&CacheCtx<'_>>,
) -> (JobOutcome, bool, CacheOutcome) {
    let started = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_extraction(spec, ctl, pool, cache)
    }));
    let run_time = started.elapsed();
    match result {
        Err(payload) => {
            // The pool may hold workers mid-pass or poisoned state from
            // the unwound job — drop it; the next job starts fresh.
            *pool = None;
            (
                JobOutcome::Failed {
                    message: panic_message(payload),
                },
                true,
                CacheOutcome::default(),
            )
        }
        Ok(Err(msg)) => (
            JobOutcome::Failed { message: msg },
            false,
            CacheOutcome::default(),
        ),
        Ok(Ok((report, cache_out))) => {
            let jr = JobReport {
                report,
                queue_wait,
                run_time,
            };
            let outcome = if jr.report.cancelled {
                // Shutdown — or an injected cancellation — cancelled the
                // run; either way it drained without a usable result.
                JobOutcome::Drained
            } else if jr.report.timed_out {
                JobOutcome::TimedOut(jr)
            } else {
                JobOutcome::Completed(jr)
            };
            (outcome, false, cache_out)
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ALGORITHMS;
    use std::time::Duration;

    #[test]
    fn every_algorithm_completes_a_small_job() {
        for alg in ALGORITHMS {
            let spec = JobSpec {
                procs: 2,
                ..JobSpec::new(alg, "gen:misex3@0.05")
            };
            match execute(&spec, &RunCtl::new(), Duration::ZERO) {
                JobOutcome::Completed(jr) => {
                    assert!(jr.report.lc_after <= jr.report.lc_before, "{alg:?}");
                    assert!(jr.run_time > Duration::ZERO);
                }
                other => panic!("{alg:?}: unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn batched_jobs_complete_and_report_pass_counters() {
        for alg in ALGORITHMS {
            let spec = JobSpec {
                procs: 2,
                batch_rects: 8,
                ..JobSpec::new(alg, "gen:misex3@0.05")
            };
            match execute(&spec, &RunCtl::new(), Duration::ZERO) {
                JobOutcome::Completed(jr) => {
                    assert!(jr.report.lc_after <= jr.report.lc_before, "{alg:?}");
                    assert!(jr.report.passes >= 1, "{alg:?}");
                    assert_eq!(
                        jr.report.batch_candidates,
                        jr.report.batch_accepted + jr.report.batch_rejected,
                        "{alg:?}"
                    );
                }
                other => panic!("{alg:?}: unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn expired_deadline_times_out() {
        let spec = JobSpec {
            deadline: Some(Duration::ZERO),
            ..JobSpec::new(Algorithm::Seq, "gen:dalu@0.2")
        };
        let ctl = crate::job::ctl_for(&spec);
        match execute(&spec, &ctl, Duration::ZERO) {
            JobOutcome::TimedOut(jr) => assert_eq!(jr.report.extractions, 0),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn cancelled_job_reports_drained() {
        let ctl = RunCtl::new();
        ctl.cancel();
        let spec = JobSpec::new(Algorithm::Seq, "gen:misex3@0.05");
        match execute(&spec, &ctl, Duration::ZERO) {
            JobOutcome::Drained => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn seq_pooled_jobs_reuse_the_worker_pool() {
        let spec = JobSpec {
            par_threads: 2,
            ..JobSpec::new(Algorithm::Seq, "gen:misex3@0.05")
        };
        let mut pool = None;
        for _ in 0..2 {
            let (outcome, panicked, _) =
                execute_tracked(&spec, &RunCtl::new(), Duration::ZERO, &mut pool, None);
            assert!(!panicked);
            assert!(matches!(outcome, JobOutcome::Completed(_)));
        }
        // Both jobs ran through one pool: its single background worker
        // was spawned by the first job and adopted warm by the second.
        assert_eq!(pool.expect("slot refilled").spawned_threads(), 1);
    }

    #[test]
    fn cached_resubmission_replays_for_every_algorithm() {
        use pf_cache::CacheConfig;
        let cache = ExtractionCache::new(CacheConfig::default());
        let ctx = CacheCtx {
            cache: &cache,
            admit: true,
        };
        let mut pool = None;
        for alg in ALGORITHMS {
            let spec = JobSpec {
                procs: 2,
                ..JobSpec::new(alg, "gen:misex3@0.05")
            };
            let (cold, out) =
                run_extraction(&spec, &RunCtl::new(), &mut pool, Some(&ctx)).expect("cold run");
            assert_eq!(out.events.misses, 1, "{alg:?}");
            assert_eq!(out.events.inserted, 1, "{alg:?}");
            let (hit, out2) =
                run_extraction(&spec, &RunCtl::new(), &mut pool, Some(&ctx)).expect("hit");
            assert_eq!(out2.events.hits, 1, "{alg:?}");
            assert_eq!(hit.lc_after, cold.lc_after, "{alg:?}");
            assert_eq!(hit.phases.len(), 1, "{alg:?}");
            assert_eq!(hit.phases[0].name, "cache");
        }
        assert!(cache.stats().balanced());
    }

    #[test]
    fn delta_resubmission_of_a_cached_workload_replays_the_exact_hit() {
        use pf_cache::CacheConfig;
        let cache = ExtractionCache::new(CacheConfig::default());
        let ctx = CacheCtx {
            cache: &cache,
            admit: true,
        };
        let mut pool = None;
        let base = JobSpec::new(Algorithm::Seq, "gen:misex3@0.1");
        let (cold, _) =
            run_extraction(&base, &RunCtl::new(), &mut pool, Some(&ctx)).expect("base run");

        // Identical workload as a delta: the new network's exact key is
        // already resident, so the delta path answers from the cache.
        let mut spec = JobSpec::new(Algorithm::Seq, "gen:misex3@0.1");
        spec.delta_from = Some("seq/gen:misex3@0.1".to_string());
        let before = cache.len();
        let (report, out) =
            run_extraction(&spec, &RunCtl::new(), &mut pool, Some(&ctx)).expect("delta");
        assert!(out.delta);
        assert_eq!(out.events.hits, 1);
        assert_eq!(report.lc_after, cold.lc_after);
        assert_eq!(report.phases[0].name, "cache");
        assert_eq!(cache.len(), before, "delta path admits nothing new");
    }

    #[test]
    fn delta_splice_re_extracts_dirty_cones_and_matches_the_cold_run() {
        use pf_cache::CacheConfig;
        let cache = ExtractionCache::new(CacheConfig::default());
        let ctx = CacheCtx {
            cache: &cache,
            admit: true,
        };
        let mut pool = None;
        // Seed a base whose cones do NOT match the new workload's: the
        // classifier marks every cone dirty, the splice reconstructs the
        // new network, and the dirty re-extraction must land exactly
        // where a plain cold run lands.
        let base = JobSpec::new(Algorithm::Seq, "gen:misex3@0.1");
        run_extraction(&base, &RunCtl::new(), &mut pool, Some(&ctx)).expect("base run");

        let cold_spec = JobSpec::new(Algorithm::Seq, "gen:dalu@0.2");
        let (cold, _) = run_extraction(&cold_spec, &RunCtl::new(), &mut pool, None).expect("cold");

        let mut spec = JobSpec::new(Algorithm::Seq, "gen:dalu@0.2");
        spec.delta_from = Some("seq/gen:misex3@0.1".to_string());
        let before = cache.len();
        let (report, out) =
            run_extraction(&spec, &RunCtl::new(), &mut pool, Some(&ctx)).expect("delta");
        assert!(out.delta, "base was cached, so the splice path ran");
        assert_eq!(report.phases[0].name, "splice");
        assert_eq!(report.lc_before, cold.lc_before);
        assert_eq!(report.lc_after, cold.lc_after);
        assert_eq!(report.extractions, cold.extractions);
        assert_eq!(cache.len(), before, "spliced results are never admitted");
    }

    #[test]
    fn delta_with_uncached_base_falls_back_to_a_full_run() {
        use pf_cache::CacheConfig;
        let cache = ExtractionCache::new(CacheConfig::default());
        let ctx = CacheCtx {
            cache: &cache,
            admit: true,
        };
        let mut pool = None;
        let mut spec = JobSpec::new(Algorithm::Seq, "gen:misex3@0.05");
        spec.delta_from = Some("seq/gen:dalu@0.2".to_string());
        let (report, out) =
            run_extraction(&spec, &RunCtl::new(), &mut pool, Some(&ctx)).expect("fallback");
        assert!(!out.delta, "fallback is not a delta job");
        assert_eq!(
            out.events.inserted, 1,
            "the fallback cold run is admissible"
        );
        assert!(report.lc_after <= report.lc_before);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn bad_workload_fails_structurally() {
        let spec = JobSpec::new(Algorithm::Seq, "gen:nosuch@0.1");
        match execute(&spec, &RunCtl::new(), Duration::ZERO) {
            JobOutcome::Failed { message } => assert!(message.contains("nosuch")),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn panic_is_contained() {
        let spec = JobSpec::new(Algorithm::Seq, "gen:misex3@0.05");
        let outcome = std::panic::catch_unwind(|| {
            // Simulate a panicking job path through the same classifier.
            let result: Result<Result<ExtractReport, String>, _> =
                std::panic::catch_unwind(|| panic!("boom"));
            match result {
                Err(p) => JobOutcome::Failed {
                    message: panic_message(p),
                },
                _ => unreachable!(),
            }
        })
        .expect("outer context survives");
        match outcome {
            JobOutcome::Failed { message } => assert_eq!(message, "boom"),
            other => panic!("unexpected outcome {other:?}"),
        }
        let _ = spec;
    }
}
