//! Algorithm R — parallel kernel extraction with a replicated circuit
//! (paper §3, after ProperMIS [4]).
//!
//! Every worker holds its own replica of the network and the full KC
//! matrix. Concurrency comes only from subdividing the rectangle search:
//! worker `p` of `n` explores the rectangles whose **leftmost column**
//! falls in its stripe (Figure 1). Each iteration then reduces the
//! per-worker candidates to one global best rectangle — picked
//! deterministically so every replica follows the exact sequential
//! search path — and every worker applies the same extraction to its own
//! copy. The per-step barrier and the redundant replica maintenance are
//! the paper's explanation for this algorithm's poor speedup; both are
//! reproduced faithfully here.

use crate::ctl::StopReason;
use crate::report::{ExtractReport, PhaseTiming};
use crate::seq::{Engine, ExtractConfig};
use pf_kcmatrix::Rectangle;
use pf_network::{Network, SignalId};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Options for [`replicated_extract`].
#[derive(Clone, Debug)]
pub struct ReplicatedConfig {
    /// Number of workers (replicas).
    pub procs: usize,
    /// Extraction options shared by every replica.
    pub extract: ExtractConfig,
    /// Wall-clock deadline; on expiry the run stops after the current
    /// iteration and the report is flagged `timed_out` (the paper's
    /// Table 2 marks such runs "-").
    pub deadline: Option<Duration>,
}

impl Default for ReplicatedConfig {
    fn default() -> Self {
        ReplicatedConfig {
            procs: 2,
            extract: ExtractConfig {
                name_prefix: "rkx_".to_string(),
                ..ExtractConfig::default()
            },
            deadline: None,
        }
    }
}

/// Deterministic choice among per-stripe candidates: maximum value, ties
/// broken on the lexicographically smallest (cols, rows). Mirrors "the
/// processor which owns the root of the search tree identifies the best
/// rectangle and broadcasts it".
fn pick_best(candidates: &[Vec<Rectangle>]) -> Option<Rectangle> {
    let mut best: Option<&Rectangle> = None;
    for r in candidates.iter().flatten() {
        best = Some(match best {
            None => r,
            Some(b) => {
                if (r.value, &b.cols, &b.rows) > (b.value, &r.cols, &r.rows) {
                    r
                } else {
                    b
                }
            }
        });
    }
    best.cloned()
}

/// Runs Algorithm R on the network, in place. Returns the report.
pub fn replicated_extract(nw: &mut Network, cfg: &ReplicatedConfig) -> ExtractReport {
    let start = Instant::now();
    let p = cfg.procs.max(1);
    let lc_before = nw.literal_count();
    let targets: Vec<SignalId> = nw.node_ids().collect();

    let barrier = Barrier::new(p);
    // Per-stripe candidate lists: one rectangle each classically, up to
    // `search.topk` with batching. The decision broadcast is likewise a
    // list — empty means stop.
    let candidates: Mutex<Vec<Vec<Rectangle>>> = Mutex::new(vec![Vec::new(); p]);
    let decision: Mutex<Vec<Rectangle>> = Mutex::new(Vec::new());
    let timed_out = AtomicBool::new(false);
    let cancelled = AtomicBool::new(false);
    let exhausted_any = AtomicBool::new(false);
    let passes = AtomicUsize::new(0);
    let batch_candidates = AtomicUsize::new(0);
    let batch_accepted = AtomicUsize::new(0);
    let batch_rejected = AtomicUsize::new(0);
    let outcome: Mutex<Option<(Network, usize, i64)>> = Mutex::new(None);
    let replicate_elapsed: Mutex<Duration> = Mutex::new(Duration::default());
    let batching = cfg.extract.search.topk > 1;
    let nw_ref: &Network = nw;

    std::thread::scope(|s| {
        for pid in 0..p {
            let barrier = &barrier;
            let candidates = &candidates;
            let decision = &decision;
            let timed_out = &timed_out;
            let cancelled = &cancelled;
            let exhausted_any = &exhausted_any;
            let passes = &passes;
            let batch_candidates = &batch_candidates;
            let batch_accepted = &batch_accepted;
            let batch_rejected = &batch_rejected;
            let outcome = &outcome;
            let replicate_elapsed = &replicate_elapsed;
            let targets = &targets;
            let cfg = &cfg;
            // Lane opened (and the replicate span started) driver-side,
            // so the span covers thread-spawn latency — which the report
            // attributes to the replicate phase too.
            let mut lane = cfg.extract.trace.lane(&format!("r{pid}"));
            let replicate_span = lane.start("replicate");
            s.spawn(move || {
                // The replica: full circuit and full matrix per worker.
                // Matrix generation itself uses the §3 parallel scheme
                // (processor-offset row labels merged in label order),
                // so all replicas are bit-identical by construction.
                let mut replica = nw_ref.clone();
                let mut engine = Engine::new_parallel(&replica, targets, cfg.extract.clone(), p);
                // With `search.par_threads ≥ 1` each replica owns a
                // persistent search pool; pre-spawn its workers inside
                // the replicate span so no cover pass pays spawn cost.
                // The per-replica stripe is constant, so the pool's
                // cross-pass ceilings stay valid between iterations.
                engine.warm_pool();
                lane.end(replicate_span);
                if pid == 0 {
                    *replicate_elapsed.lock().unwrap() = start.elapsed();
                }
                let cover_span = lane.start("cover");
                let mut extractions = 0usize;
                let mut total_value = 0i64;
                loop {
                    let pass = lane.start("search");
                    // The per-stripe canonical top-K (the classic single
                    // candidate when `topk ≤ 1`).
                    let (rects, stats) = engine.search(Some((pid as u32, p as u32)));
                    if stats.budget_exhausted {
                        exhausted_any.store(true, Ordering::Relaxed);
                    }
                    crate::seq::end_search_span(&mut lane, pass, rects.first(), &stats);
                    candidates.lock().unwrap()[pid] = rects;
                    barrier.wait();
                    if pid == 0 {
                        // Reduction at the root of the search tree — the
                        // per-iteration barrier, and so the natural spot
                        // for every stop check. Fault site too: inject
                        // latency or cancel here (a panic would strand
                        // the sibling replicas at the barrier).
                        cfg.extract.ctl.fault_point("replicated:reduce");
                        passes.fetch_add(1, Ordering::Relaxed);
                        let mut stop = false;
                        if let Some(deadline) = cfg.deadline {
                            if start.elapsed() > deadline {
                                stop = true;
                                timed_out.store(true, Ordering::Relaxed);
                            }
                        }
                        match cfg.extract.ctl.stop_reason() {
                            Some(StopReason::DeadlineExpired) => {
                                stop = true;
                                timed_out.store(true, Ordering::Relaxed);
                            }
                            Some(StopReason::Cancelled) => {
                                stop = true;
                                cancelled.store(true, Ordering::Relaxed);
                            }
                            None => {}
                        }
                        let d: Vec<Rectangle> = if stop {
                            Vec::new()
                        } else if batching {
                            // Merge the per-stripe top-K lists into the
                            // canonical global top-K (every global
                            // member is in its own stripe's list, so
                            // the merge is stripe-count independent),
                            // then run the same select→apply→revalidate
                            // drain the sequential engine uses — on pid
                            // 0's own replica, whose matrix all other
                            // replicas mirror. The full drained
                            // sequence is broadcast; the siblings
                            // replay it verbatim.
                            let all: Vec<Rectangle> = {
                                let cands = candidates.lock().unwrap();
                                cands.iter().flatten().cloned().collect()
                            };
                            batch_candidates.fetch_add(all.len(), Ordering::Relaxed);
                            let mut wave =
                                pf_kcmatrix::canonical_top_k(&all, cfg.extract.search.topk);
                            let mut sequence: Vec<Rectangle> = Vec::new();
                            while !wave.is_empty() {
                                let remaining = cfg
                                    .extract
                                    .max_extractions
                                    .saturating_sub(extractions + sequence.len());
                                if remaining == 0 {
                                    break;
                                }
                                let sel = engine.select_batch(&wave, remaining);
                                for rect in &sel {
                                    let apply_span = lane.start("apply");
                                    engine.apply(&mut replica, rect);
                                    lane.end_with(apply_span, || vec![("value", rect.value)]);
                                }
                                wave = wave
                                    .into_iter()
                                    .filter(|c| !sel.contains(c))
                                    .filter_map(|c| engine.revalidate(&c))
                                    .collect();
                                sequence.extend(sel);
                            }
                            batch_accepted.fetch_add(sequence.len(), Ordering::Relaxed);
                            batch_rejected.fetch_add(
                                all.len().saturating_sub(sequence.len()),
                                Ordering::Relaxed,
                            );
                            sequence
                        } else {
                            pick_best(&candidates.lock().unwrap()).into_iter().collect()
                        };
                        *decision.lock().unwrap() = d;
                    }
                    barrier.wait();
                    let chosen = decision.lock().unwrap().clone();
                    if chosen.is_empty() {
                        break;
                    }
                    // Every replica applies the same extraction(s), in
                    // the same order — identical deterministic state on
                    // all workers. Pid 0 already applied them during the
                    // drain above (batching only), so it just accounts.
                    for rect in &chosen {
                        total_value += rect.value;
                        if !(batching && pid == 0) {
                            let apply_span = lane.start("apply");
                            engine.apply(&mut replica, rect);
                            lane.end_with(apply_span, || vec![("value", rect.value)]);
                        }
                        extractions += 1;
                    }
                    barrier.wait();
                }
                lane.end(cover_span);
                if pid == 0 {
                    *outcome.lock().unwrap() = Some((replica, extractions, total_value));
                }
            });
        }
    });

    let (result, extractions, total_value) = outcome
        .into_inner()
        .unwrap()
        .expect("worker 0 publishes its replica");
    *nw = result;
    let elapsed = start.elapsed();
    let setup = *replicate_elapsed.lock().unwrap();
    ExtractReport {
        lc_before,
        lc_after: nw.literal_count(),
        extractions,
        total_value,
        elapsed,
        budget_exhausted: exhausted_any.load(Ordering::Relaxed),
        shipped_rectangles: 0,
        timed_out: timed_out.load(Ordering::Relaxed),
        cancelled: cancelled.load(Ordering::Relaxed),
        degraded: false,
        recovery_rects: 0,
        passes: passes.load(Ordering::Relaxed),
        batch_candidates: batch_candidates.load(Ordering::Relaxed),
        batch_accepted: batch_accepted.load(Ordering::Relaxed),
        batch_rejected: batch_rejected.load(Ordering::Relaxed),
        resub_pairs_considered: 0,
        resub_pairs_divided: 0,
        resub_worklist_rounds: 0,
        setup,
        phases: vec![
            PhaseTiming::new("replicate", setup),
            PhaseTiming::new("cover", elapsed.saturating_sub(setup)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::extract_kernels;
    use pf_network::example::example_1_1;
    use pf_network::sim::{equivalent_random, EquivConfig};

    #[test]
    fn matches_sequential_quality_on_example() {
        // Same search path as sequential ⇒ identical result.
        for procs in [1usize, 2, 3, 6] {
            let (mut nw, _) = example_1_1();
            let original = nw.clone();
            let report = replicated_extract(
                &mut nw,
                &ReplicatedConfig {
                    procs,
                    ..ReplicatedConfig::default()
                },
            );
            assert_eq!(report.lc_after, 21, "procs={procs}");
            assert_eq!(report.extractions, 3);
            assert!(!report.timed_out);
            assert!(
                equivalent_random(&original, &nw, &EquivConfig::default()).unwrap(),
                "procs={procs}"
            );
        }
    }

    #[test]
    fn identical_extraction_sequence_to_sequential() {
        let (mut seq_nw, _) = example_1_1();
        let seq_report = extract_kernels(&mut seq_nw, &[], &Default::default());
        let (mut par_nw, _) = example_1_1();
        let par_report = replicated_extract(
            &mut par_nw,
            &ReplicatedConfig {
                procs: 4,
                ..ReplicatedConfig::default()
            },
        );
        assert_eq!(seq_report.lc_after, par_report.lc_after);
        assert_eq!(seq_report.total_value, par_report.total_value);
        assert_eq!(seq_report.extractions, par_report.extractions);
    }

    #[test]
    fn batched_replicated_is_proc_count_invariant() {
        // The per-stripe top-K lists merge to the canonical global
        // top-K (every global member survives its own stripe's list),
        // so the drained batch sequence — and the final network — are
        // identical for any stripe count, and identical to the batched
        // sequential engine.
        let profile = pf_workloads::CircuitProfile::small("rbatch", 11);
        let mut seq_cfg = crate::seq::ExtractConfig::default();
        seq_cfg.search.topk = 8;
        let mut seq_nw = pf_workloads::generate(&profile);
        let seq_report = extract_kernels(&mut seq_nw, &[], &seq_cfg);
        assert!(seq_report.extractions > 1);
        for procs in [1usize, 2, 4] {
            let mut cfg = ReplicatedConfig {
                procs,
                ..ReplicatedConfig::default()
            };
            cfg.extract.search.topk = 8;
            let mut nw = pf_workloads::generate(&profile);
            let report = replicated_extract(&mut nw, &cfg);
            assert_eq!(report.lc_after, seq_report.lc_after, "procs={procs}");
            assert_eq!(report.total_value, seq_report.total_value);
            assert_eq!(report.extractions, seq_report.extractions);
            assert_eq!(report.passes, seq_report.passes);
            assert_eq!(report.batch_accepted, report.extractions);
            assert!(nw.validate().is_ok());
        }
    }

    #[test]
    fn deadline_flags_timeout() {
        let (mut nw, _) = example_1_1();
        let report = replicated_extract(
            &mut nw,
            &ReplicatedConfig {
                procs: 2,
                deadline: Some(Duration::ZERO),
                ..ReplicatedConfig::default()
            },
        );
        assert!(report.timed_out);
        // Nothing extracted: the deadline fired before the first commit.
        assert_eq!(report.extractions, 0);
        assert_eq!(report.lc_after, report.lc_before);
    }

    #[test]
    fn ctl_deadline_flags_timeout() {
        let (mut nw, _) = example_1_1();
        let mut cfg = ReplicatedConfig {
            procs: 2,
            ..ReplicatedConfig::default()
        };
        cfg.extract.ctl = crate::ctl::RunCtl::with_deadline(Duration::ZERO);
        let report = replicated_extract(&mut nw, &cfg);
        assert!(report.timed_out);
        assert!(!report.cancelled);
        assert_eq!(report.extractions, 0);
    }

    #[test]
    fn ctl_cancel_flags_cancelled() {
        let (mut nw, _) = example_1_1();
        let cfg = ReplicatedConfig {
            procs: 2,
            ..ReplicatedConfig::default()
        };
        cfg.extract.ctl.cancel();
        let report = replicated_extract(&mut nw, &cfg);
        assert!(report.cancelled);
        assert!(!report.timed_out);
        assert_eq!(report.extractions, 0);
        assert_eq!(report.lc_after, report.lc_before);
    }

    #[test]
    fn phases_report_replicate_and_cover() {
        let (mut nw, _) = example_1_1();
        let report = replicated_extract(&mut nw, &ReplicatedConfig::default());
        assert_eq!(report.phases[0].name, "replicate");
        assert_eq!(report.phases[1].name, "cover");
        assert_eq!(report.phase("replicate"), Some(report.setup));
    }

    #[test]
    fn pick_best_is_deterministic_on_ties() {
        let a = Rectangle {
            rows: vec![1, 2],
            cols: vec![0, 3],
            value: 5,
        };
        let b = Rectangle {
            rows: vec![0, 1],
            cols: vec![1, 2],
            value: 5,
        };
        let got1 = pick_best(&[vec![a.clone()], vec![b.clone()]]).unwrap();
        let got2 = pick_best(&[vec![b.clone()], vec![a.clone()]]).unwrap();
        assert_eq!(got1, got2);
        assert_eq!(got1.cols, vec![0, 3]); // smaller cols wins the tie
    }

    #[test]
    fn pick_best_prefers_value() {
        let small = Rectangle {
            rows: vec![0],
            cols: vec![0, 1],
            value: 2,
        };
        let big = Rectangle {
            rows: vec![9],
            cols: vec![8, 9],
            value: 7,
        };
        assert_eq!(
            pick_best(&[vec![small], vec![big.clone()], vec![]]).unwrap(),
            big
        );
        assert!(pick_best(&[vec![], vec![]]).is_none());
    }
}
