//! Sequential kernel extraction — the SIS `gkx` equivalent baseline.
//!
//! The greedy rectangle-cover loop of §2/§3: build the co-kernel cube
//! matrix for the candidate nodes, find the maximum-valued rectangle,
//! extract it (create a node for the kernel, rewrite the covered rows),
//! refresh the affected rows, and repeat until no rectangle has positive
//! value. The [`Engine`] exposes the individual steps so Algorithm R can
//! drive the same loop with a striped search and replicated state.

use crate::cost::Objective;
use crate::ctl::RunCtl;
use crate::report::{ExtractReport, PhaseTiming};
use crate::trace::{Lane, Tracer};
use pf_cache::WarmStart;
use pf_kcmatrix::{
    revalidate_rectangle, search, select_prefix_nonconflicting, CeilingSnapshot, CeilingUpdate,
    ColIdx, CostModel, CubeId, CubeRegistry, KcMatrix, KcRow, LabelGen, Rectangle, SearchConfig,
    SearchPool, SearchStats,
};
use pf_network::{Network, SignalId};
use pf_sop::fx::FxHashMap;
use pf_sop::kernel::KernelConfig;
use pf_sop::Cube;
use std::time::Instant;

/// Options for the sequential extractor.
#[derive(Clone, Debug)]
pub struct ExtractConfig {
    /// Kernel enumeration options.
    pub kernel: KernelConfig,
    /// Rectangle search options.
    pub search: SearchConfig,
    /// Hard cap on extractions (safety valve; the loop terminates on its
    /// own because every extraction strictly reduces the literal count).
    pub max_extractions: usize,
    /// Name prefix for extracted nodes (`[prefix]0`, `[prefix]1`, …).
    pub name_prefix: String,
    /// Whether freshly extracted nodes join the candidate set and are
    /// themselves mined for kernels (SIS does this).
    pub extract_from_new: bool,
    /// Optional weighted objective (timing- or power-driven cover, §6's
    /// closing remark). `None` is the paper's literal-count objective.
    pub objective: Option<Objective>,
    /// Cooperative stop control (deadline / external cancellation),
    /// checked at the cover-loop head. Cloning the config shares the
    /// handle, so every worker of a parallel driver stops together.
    pub ctl: RunCtl,
    /// Span/event recorder. Disarmed by default (every hook is one
    /// branch); cloning the config shares the trace, so nested and
    /// parallel drivers all record into the same timeline.
    pub trace: Tracer,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig {
            kernel: KernelConfig::default(),
            search: SearchConfig::default(),
            max_extractions: usize::MAX,
            name_prefix: "kx_".to_string(),
            extract_from_new: true,
            objective: None,
            ctl: RunCtl::new(),
            trace: Tracer::disarmed(),
        }
    }
}

/// The stepwise extraction engine: matrix + registry + label state.
pub struct Engine {
    matrix: KcMatrix,
    registry: CubeRegistry,
    weights: Vec<u32>,
    row_labels: LabelGen,
    col_labels: LabelGen,
    targets: Vec<SignalId>,
    cfg: ExtractConfig,
    counter: usize,
    applied: usize,
    /// Weighted cube values (parallel to `weights`), present iff
    /// `cfg.objective` is set.
    wvals: Vec<u32>,
    /// Best rectangle applied in the previous pass of this engine's
    /// cover loop — re-validated against the current matrix and used to
    /// seed the next search's pruning bound.
    prev_best: Option<Rectangle>,
    /// Persistent search executor, present iff `search.par_threads ≥ 1`:
    /// long-lived workers with reusable scratch and cross-pass
    /// per-column ceilings, replacing per-pass thread spawns.
    pool: Option<SearchPool>,
    /// Columns invalidated by [`Engine::apply`] since the last search —
    /// the pool's ceiling dirty set.
    dirty_cols: Vec<ColIdx>,
    /// Whether the pool has yet to see this engine's matrix (first
    /// search resets the ceilings instead of patching them).
    pool_fresh: bool,
}

/// Starts the fresh-name counter past every `{prefix}{N}` already in the
/// network, so [`Engine::apply`] almost never probes occupied names
/// (each probe used to cost a `format!` + lookup per collision).
fn counter_past_existing(nw: &Network, prefix: &str) -> usize {
    let mut next = 0usize;
    for id in nw.signal_ids() {
        if let Some(tail) = nw.name(id).strip_prefix(prefix) {
            if let Ok(n) = tail.parse::<usize>() {
                next = next.max(n + 1);
            }
        }
    }
    next
}

impl Engine {
    /// Builds the matrix over `targets` (internal nodes of `nw`).
    pub fn new(nw: &Network, targets: &[SignalId], cfg: ExtractConfig) -> Self {
        let registry = CubeRegistry::new();
        let mut matrix = KcMatrix::new();
        let mut row_labels = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut col_labels = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        for &t in targets {
            matrix.add_node_kernels(
                t,
                nw.func(t),
                &cfg.kernel,
                &registry,
                &mut row_labels,
                &mut col_labels,
            );
        }
        let weights = registry.weights_snapshot();
        let counter = counter_past_existing(nw, &cfg.name_prefix);
        let pool = (cfg.search.par_threads >= 1).then(SearchPool::new);
        let mut engine = Engine {
            matrix,
            registry,
            weights,
            row_labels,
            col_labels,
            targets: targets.to_vec(),
            cfg,
            counter,
            applied: 0,
            wvals: Vec::new(),
            prev_best: None,
            pool,
            dirty_cols: Vec::new(),
            pool_fresh: true,
        };
        engine.refresh_wvals();
        engine
    }

    /// Builds the matrix with the §3 *parallel generation* scheme: the
    /// nodes are conceptually partitioned among `procs` generators, each
    /// enumerating the kernels of its share and labeling the rows with
    /// its processor-offset [`LabelGen`] block; the shares are then
    /// merged **in label order**, which — exactly as the paper's
    /// labeling argument goes — yields the same matrix on every replica
    /// irrespective of generation interleaving.
    ///
    /// Functionally identical to [`Engine::new`] apart from row labels;
    /// rows and columns appear in the same deterministic order.
    pub fn new_parallel(
        nw: &Network,
        targets: &[SignalId],
        cfg: ExtractConfig,
        procs: usize,
    ) -> Self {
        use pf_sop::kernel::kernels_config;
        let procs = procs.max(1);
        // Phase 1 (parallel): each generator enumerates kernels for the
        // targets assigned round-robin to it.
        type Generated = Vec<(u64, SignalId, pf_sop::kernel::CoKernelPair)>;
        let shares: Vec<Generated> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..procs)
                .map(|pid| {
                    let cfg = &cfg;
                    s.spawn(move || {
                        let mut labels = LabelGen::new(pid as u16, LabelGen::DEFAULT_OFFSET);
                        let mut out: Generated = Vec::new();
                        for (k, &t) in targets.iter().enumerate() {
                            if k % procs != pid {
                                continue;
                            }
                            for pair in kernels_config(nw.func(t), &cfg.kernel) {
                                out.push((labels.next(), t, pair));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Phase 2 (the "broadcast"): merge all shares in label order so
        // every replica builds the identical matrix.
        let mut rows: Vec<(u64, SignalId, pf_sop::kernel::CoKernelPair)> =
            shares.into_iter().flatten().collect();
        rows.sort_by_key(|(label, _, _)| *label);

        let registry = CubeRegistry::new();
        let mut matrix = KcMatrix::new();
        // Fresh kernels after extraction get labels from a dedicated
        // high block so they never collide with the generators'.
        let row_labels = LabelGen::new(procs as u16 + 1, LabelGen::DEFAULT_OFFSET);
        let mut col_labels = LabelGen::new(procs as u16 + 1, LabelGen::DEFAULT_OFFSET);
        for (label, node, pair) in rows {
            matrix.add_row(
                label,
                node,
                pair.cokernel,
                &pair.kernel,
                &registry,
                &mut col_labels,
            );
        }
        let weights = registry.weights_snapshot();
        let counter = counter_past_existing(nw, &cfg.name_prefix);
        let pool = (cfg.search.par_threads >= 1).then(SearchPool::new);
        let mut engine = Engine {
            matrix,
            registry,
            weights,
            row_labels,
            col_labels,
            targets: targets.to_vec(),
            cfg,
            counter,
            applied: 0,
            wvals: Vec::new(),
            prev_best: None,
            pool,
            dirty_cols: Vec::new(),
            pool_fresh: true,
        };
        engine.refresh_wvals();
        engine
    }

    /// Extends the weighted-value cache for newly interned cubes, one
    /// registry lock for the whole batch (not one lock + clone per id).
    fn refresh_wvals(&mut self) {
        let Some(obj) = &self.cfg.objective else {
            return;
        };
        let wvals = &mut self.wvals;
        self.registry.for_each_from(wvals.len(), |_, cube| {
            wvals.push(obj.cube_weight(cube));
        });
    }

    /// Pre-spawns the pool's background workers (no-op for a pool-less
    /// engine or `par_threads ≤ 1`). Drivers call this before their
    /// measured cover loop so no pass pays spawn latency.
    pub fn warm_pool(&mut self) {
        let threads = self.cfg.search.par_threads;
        if let Some(pool) = self.pool.as_mut() {
            pool.warm(threads);
        }
    }

    /// Hands an existing pool to this engine (replacing any own pool),
    /// reusing its warmed threads and scratch; its ceilings are reset on
    /// the first search. Only meaningful when `par_threads ≥ 1`.
    pub fn adopt_pool(&mut self, pool: SearchPool) {
        if self.cfg.search.par_threads >= 1 {
            self.pool = Some(pool);
            self.pool_fresh = true;
        }
    }

    /// Takes the engine's pool back out (e.g. to reuse it for the next
    /// job on this worker thread).
    pub fn take_pool(&mut self) -> Option<SearchPool> {
        self.pool.take()
    }

    /// The pool's `tile` phase counters: full panel (re)builds and
    /// incrementally re-encoded columns so far. `(0, 0)` for a pool-less
    /// engine.
    pub fn tile_counters(&self) -> (u64, u64) {
        self.pool
            .as_ref()
            .map_or((0, 0), |p| (p.tile_rebuilds(), p.tile_synced_cols()))
    }

    /// The matrix (for inspection / rendering).
    pub fn matrix(&self) -> &KcMatrix {
        &self.matrix
    }

    /// Searches for the canonical top `search.topk` rectangles of this
    /// pass, best-first (the classic single winner when `topk ≤ 1`);
    /// `stripe` optionally restricts the leftmost column as in
    /// Algorithm R. Returns the full [`SearchStats`] (visited / pruned /
    /// bound-update counters) so callers can trace per-pass search
    /// behaviour.
    pub fn search(&mut self, stripe: Option<(u32, u32)>) -> (Vec<Rectangle>, SearchStats) {
        let cfg = SearchConfig {
            stripe,
            ..self.cfg.search.clone()
        };
        // Pooled pass: the first one over this matrix resets the
        // ceilings; later ones only invalidate the columns `apply`
        // dirtied, so unchanged leftmost-column subtrees prune from
        // their surviving ceilings immediately.
        let update = if self.pool_fresh {
            CeilingUpdate::Reset
        } else {
            CeilingUpdate::Dirty(&self.dirty_cols)
        };
        let pool = self.pool.as_mut().map(|pool| (pool, update));
        let pooled = pool.is_some();
        let out = with_model(
            &self.weights,
            &self.wvals,
            self.cfg.objective.as_ref(),
            |model| search(&self.matrix, model, &cfg, self.prev_best.as_ref(), pool),
        );
        if pooled {
            self.pool_fresh = false;
            self.dirty_cols.clear();
        }
        out
    }

    /// Canonical non-conflicting *prefix* of `candidates` against the
    /// engine's current matrix (see [`pf_kcmatrix::conflict`]), at most
    /// `max` rectangles, in canonical order.
    ///
    /// This is the batched cover's wave selection: it stops at the first
    /// conflict rather than skipping over it, because the callers
    /// re-validate and re-rank the survivors before the next wave.
    /// Skip-over selection (`select_nonconflicting`) applied stale
    /// post-conflict candidates and inflated the extraction count over
    /// the one-per-pass engine (e.g. gen:dalu@1 with `topk 16`: 22
    /// extractions / LC 2131 vs the singular 18 / 2130; the prefix rule
    /// restores 18 / 2130 at 4.5 rectangles per search pass).
    pub fn select_batch(&self, candidates: &[Rectangle], max: usize) -> Vec<Rectangle> {
        select_prefix_nonconflicting(&self.matrix, candidates, max)
    }

    /// Re-validates a candidate's column set against the current matrix
    /// (maximal support, exact value) — `None` when it no longer denotes
    /// a positive-value extraction. Lets the batched cover loop drain
    /// conflict-rejected candidates after a batch apply without another
    /// search pass.
    pub fn revalidate(&self, rect: &Rectangle) -> Option<Rectangle> {
        with_model(
            &self.weights,
            &self.wvals,
            self.cfg.objective.as_ref(),
            |model| revalidate_rectangle(&self.matrix, model, &self.cfg.search, rect),
        )
    }

    /// Applies a rectangle: creates the kernel node, rewrites every
    /// covered row's node, refreshes the affected matrix rows. Returns
    /// the new node id.
    ///
    /// The literal count drops by exactly `rect.value` (checked in debug
    /// builds).
    pub fn apply(&mut self, nw: &mut Network, rect: &Rectangle) -> SignalId {
        #[cfg(debug_assertions)]
        let lc_before = nw.literal_count();

        let kernel = rect.kernel(&self.matrix);
        // Skip names already taken (e.g. from a previous extraction pass
        // over the same network).
        let name = loop {
            let candidate = format!("{}{}", self.cfg.name_prefix, self.counter);
            self.counter += 1;
            if nw.find(&candidate).is_none() {
                break candidate;
            }
        };
        let x = nw
            .add_node(name, kernel.clone())
            .expect("extracted node name is fresh");
        let x_lit = nw.var(x).lit();

        // Group chosen rows by node, then rewrite each node once: a cube
        // is covered when it is one of its rows' co-kernels times one of
        // the rectangle's kernel cubes, and each row adds co-kernel·x.
        let mut by_node: FxHashMap<SignalId, Vec<&KcRow>> = FxHashMap::default();
        for &r in &rect.rows {
            let row = &self.matrix.rows()[r];
            by_node.entry(row.node).or_default().push(row);
        }
        let kernel_cubes: Vec<&Cube> = rect
            .cols
            .iter()
            .map(|&c| &self.matrix.cols()[c].cube)
            .collect();
        let x_cube = Cube::single(x_lit);
        let mut affected: Vec<SignalId> = Vec::with_capacity(by_node.len());
        for (node, rows) in by_node {
            let covered = |c: &Cube| {
                rows.iter().any(|row| {
                    kernel_cubes
                        .iter()
                        .any(|k| c.is_product_of(&row.cokernel, k))
                })
            };
            let additions = rows
                .iter()
                .map(|row| row.cokernel.product(&x_cube).expect("fresh variable"));
            nw.func_mut(node).substitute(covered, additions);
            affected.push(node);
        }

        // Ceiling bookkeeping (pooled engines only): every column with an
        // entry in a row about to be tombstoned goes dirty now, and every
        // column of a row appended below goes dirty after. Clean columns
        // keep byte-identical subtrees — their support rows, entry cubes
        // and values are all untouched — so their ceilings stay sound.
        let rows_before = self.matrix.rows().len();
        if self.pool.is_some() {
            for &n in &affected {
                for &r in self.matrix.node_rows(n) {
                    for &(c, _) in &self.matrix.rows()[r].entries {
                        self.dirty_cols.push(c);
                    }
                }
            }
        }

        // Refresh matrix rows for the affected nodes…
        for &n in &affected {
            self.matrix.remove_node_rows(n);
            self.matrix.add_node_kernels(
                n,
                nw.func(n),
                &self.cfg.kernel,
                &self.registry,
                &mut self.row_labels,
                &mut self.col_labels,
            );
        }
        // …and mine the new node too, if configured.
        if self.cfg.extract_from_new {
            self.targets.push(x);
            self.matrix.add_node_kernels(
                x,
                nw.func(x),
                &self.cfg.kernel,
                &self.registry,
                &mut self.row_labels,
                &mut self.col_labels,
            );
        }
        if self.pool.is_some() {
            for row in &self.matrix.rows()[rows_before..] {
                for &(c, _) in &row.entries {
                    self.dirty_cols.push(c);
                }
            }
            self.dirty_cols.sort_unstable();
            self.dirty_cols.dedup();
        }
        self.registry.extend_weights(&mut self.weights);
        self.refresh_wvals();

        #[cfg(debug_assertions)]
        if self.cfg.objective.is_none() {
            let lc_after = nw.literal_count();
            debug_assert_eq!(
                lc_before as i64 - lc_after as i64,
                rect.value,
                "rectangle value must equal the literal saving"
            );
        }
        self.applied += 1;
        self.prev_best = Some(rect.clone());
        x
    }

    /// Number of extractions applied so far.
    pub fn extractions(&self) -> usize {
        self.applied
    }

    /// Seeds the engine from another run's warm-start hints, valid only
    /// when this engine's matrix is byte-identical to the one the hints
    /// were captured over (the cache guarantees this by keying hints on
    /// the network content digest). Ceilings seed the pool (skipped for
    /// pool-less engines; config drift self-guards via the snapshot's
    /// embedded fingerprint); `best` seeds the first search's pruning
    /// bound exactly like a previous pass's winner would — it is
    /// re-validated against the matrix before use, and because it *is*
    /// the first-pass winner of an identical matrix, the seeded search
    /// returns the identical rectangle.
    pub fn seed_warm_start(&mut self, ceilings: Option<&CeilingSnapshot>, best: Option<Rectangle>) {
        if let (Some(pool), Some(snap)) = (self.pool.as_mut(), ceilings) {
            pool.seed_ceilings(snap);
            self.pool_fresh = false;
            self.dirty_cols.clear();
        }
        if best.is_some() {
            self.prev_best = best;
        }
    }

    /// Exports the pool's current per-column ceilings for a future
    /// warm start (`None` for pool-less engines or before any pooled
    /// search). Meaningful as hints only right after the *first* search
    /// pass — later passes describe the partially rewritten matrix.
    pub fn export_warm_ceilings(&self) -> Option<CeilingSnapshot> {
        self.pool.as_ref().and_then(|p| p.export_ceilings())
    }
}

/// Runs `f` under the engine's cost model: the area model over the cube
/// weights, or the weighted objective over its cached cube values.
fn with_model<R>(
    weights: &[u32],
    wvals: &[u32],
    objective: Option<&Objective>,
    f: impl FnOnce(&CostModel<'_>) -> R,
) -> R {
    match objective {
        None => {
            let value_of = |id: CubeId| weights[id as usize];
            f(&CostModel::area(&value_of))
        }
        Some(obj) => f(&CostModel {
            cube_value: &|id| wvals[id as usize],
            row_cost: &|cok| obj.row_cost(cok),
            col_cost: &|cube| obj.col_cost(cube),
        }),
    }
}

/// Ends a per-pass `search` span, attaching the chosen rectangle's
/// value/dims and the search counters. Shared by every driver so the
/// span vocabulary stays identical (docs/OBSERVABILITY.md).
pub(crate) fn end_search_span(
    lane: &mut Lane,
    span: crate::trace::Span,
    rect: Option<&Rectangle>,
    stats: &SearchStats,
) {
    lane.end_with(span, || {
        let mut args = vec![
            ("visited", stats.visited as i64),
            ("pruned", stats.pruned as i64),
            ("bound_updates", stats.bound_updates as i64),
        ];
        if let Some(r) = rect {
            args.push(("value", r.value));
            args.push(("rows", r.rows.len() as i64));
            args.push(("cols", r.cols.len() as i64));
        }
        args
    });
}

/// Runs kernel extraction to completion on `targets` (or on all internal
/// nodes when `targets` is empty). Returns the report.
///
/// ```
/// use pf_core::{extract_kernels, ExtractConfig};
/// use pf_network::example::example_1_1;
///
/// // The paper's Example 1.1 network: 33 literals before, 21 after the
/// // exact greedy rectangle cover (the paper's own SIS run stops at 22).
/// let (mut nw, _) = example_1_1();
/// let report = extract_kernels(&mut nw, &[], &ExtractConfig::default());
/// assert_eq!((report.lc_before, report.lc_after), (33, 21));
/// assert_eq!(report.extractions, 3);
/// ```
pub fn extract_kernels(
    nw: &mut Network,
    targets: &[SignalId],
    cfg: &ExtractConfig,
) -> ExtractReport {
    let mut pool = None;
    extract_kernels_pooled(nw, targets, cfg, &mut pool)
}

/// [`extract_kernels`] with an externally owned [`SearchPool`] slot: a
/// pool left in `*pool` is adopted (reusing its warmed threads and
/// scratch across jobs — the resident-service pattern), and the engine's
/// pool is handed back through the slot when the run ends. When
/// `par_threads` is 0 the slot is ignored and the classic spawn-free
/// sequential engine runs as before.
///
/// Phases: `matrix` (build), `pool` (pool adoption + worker pre-spawn,
/// before the cover clock starts), `cover` (the extraction loop).
pub fn extract_kernels_pooled(
    nw: &mut Network,
    targets: &[SignalId],
    cfg: &ExtractConfig,
    pool: &mut Option<SearchPool>,
) -> ExtractReport {
    extract_kernels_warm(nw, targets, cfg, pool, None, None)
}

/// [`extract_kernels_pooled`] with warm-start plumbing: `warm` seeds the
/// engine (first-pass ceilings + previous winner) before the cover loop,
/// and `capture` receives this run's own hints right after the first
/// pass — the only moment the ceilings describe the initial matrix. Both
/// are correctness-neutral: a warm-seeded run extracts the byte-identical
/// network a cold run would (see [`Engine::seed_warm_start`]).
pub(crate) fn extract_kernels_warm(
    nw: &mut Network,
    targets: &[SignalId],
    cfg: &ExtractConfig,
    pool: &mut Option<SearchPool>,
    warm: Option<&WarmStart>,
    mut capture: Option<&mut Option<WarmStart>>,
) -> ExtractReport {
    let targets: Vec<SignalId> = if targets.is_empty() {
        nw.node_ids().collect()
    } else {
        targets.to_vec()
    };
    // Lane registration is profiling-harness cost, not driver cost:
    // open it before the clock starts so traced runs keep phase spans
    // covering essentially all of `elapsed`.
    let mut lane = cfg.trace.lane(&cfg.name_prefix);
    let start = Instant::now();
    let lc_before = nw.literal_count();
    let mut report = ExtractReport {
        lc_before,
        lc_after: lc_before,
        ..Default::default()
    };
    // A job whose deadline already passed (e.g. it sat in a queue) skips
    // even the matrix build. Still report well-formed phases: everything
    // spent so far was pre-matrix bookkeeping.
    if report.note_stop(&cfg.ctl) {
        report.elapsed = start.elapsed();
        report.phases = vec![
            PhaseTiming::new("matrix", report.elapsed),
            PhaseTiming::new("pool", std::time::Duration::ZERO),
            PhaseTiming::new("cover", std::time::Duration::ZERO),
        ];
        return report;
    }
    let matrix_span = lane.start("matrix");
    let mut engine = Engine::new(nw, &targets, cfg.clone());
    lane.end(matrix_span);
    let matrix_elapsed = start.elapsed();
    // Pool setup is deliberately its own phase, outside the cover clock:
    // adopting a still-warm pool from the previous job (or pre-spawning
    // this run's workers) is exactly the setup cost the persistent
    // executor amortizes away.
    let pool_span = lane.start("pool");
    if let Some(prev) = pool.take() {
        engine.adopt_pool(prev);
    }
    engine.warm_pool();
    if let Some(w) = warm {
        engine.seed_warm_start(w.ceilings.as_ref(), Some(w.best.clone()));
    }
    lane.end(pool_span);
    let pool_elapsed = start.elapsed().saturating_sub(matrix_elapsed);
    let cover_span = lane.start("cover");
    let mut first_pass = true;
    // Batch counters and `batch` events describe top-K batching only;
    // the one-per-pass cover (`topk = 1`) leaves them at zero.
    let batching = cfg.search.topk > 1;
    // Each pass collects the canonical top-K rectangles (the classic
    // single winner at K = 1), applies the greedy maximal non-conflicting
    // subset (in canonical order, so quality-ordering is preserved
    // within the batch), and only then searches again. Fewer passes,
    // same greedy-first guarantee: the canonical best of each pass is
    // always selected and applied.
    while engine.extractions() < cfg.max_extractions {
        // The cover-loop head is the driver's barrier checkpoint, and
        // therefore also its fault-injection site.
        cfg.ctl.fault_point("seq:cover");
        if report.note_stop(&cfg.ctl) {
            break;
        }
        report.passes += 1;
        let pass = lane.start("search");
        let (cands, stats) = engine.search(None);
        report.budget_exhausted |= stats.budget_exhausted;
        end_search_span(&mut lane, pass, cands.first(), &stats);
        if first_pass {
            first_pass = false;
            if let (Some(cap), Some(r)) = (capture.as_deref_mut(), cands.first()) {
                *cap = Some(WarmStart {
                    ceilings: engine.export_warm_ceilings(),
                    best: r.clone(),
                });
            }
        }
        if cands.is_empty() {
            break;
        }
        let cands_len = cands.len();
        let mut accepted_this_pass = 0usize;
        // Apply in waves: select the canonical non-conflicting *prefix*,
        // apply it, then *re-validate* the surviving candidates against
        // the updated matrix (their column sets survive; supports and
        // values are recomputed exactly) and select again — all without
        // paying another search. The wave loop terminates because each
        // wave applies at least one rectangle and removes it from the
        // pool. At K = 1 the single wave applies the single winner.
        //
        // The prefix rule (stop at the first conflict, instead of
        // skipping over it) is what keeps the extraction count honest:
        // the conflict winner's apply rewrites the loser's rows, which
        // can shrink every candidate ranked below it, so applying
        // post-conflict candidates blind re-extracts already-covered
        // kernels as small flat extractions the one-per-pass engine
        // never makes. With the prefix rule each wave's applies are
        // ranked against a fully re-validated pool, and the batched
        // cover reproduces the one-per-pass trajectory while still
        // applying several rectangles per search.
        let mut wave = cands;
        while !wave.is_empty() && engine.extractions() < cfg.max_extractions {
            let remaining = cfg.max_extractions - engine.extractions();
            let selected = engine.select_batch(&wave, remaining);
            // The canonical best never conflicts with the empty
            // selection, so `selected` is non-empty here.
            for rect in &selected {
                report.total_value += rect.value;
                let apply_span = lane.start("apply");
                engine.apply(nw, rect);
                lane.end_with(apply_span, || vec![("value", rect.value)]);
                report.extractions += 1;
                accepted_this_pass += 1;
            }
            wave = wave
                .into_iter()
                .filter(|c| !selected.contains(c))
                .filter_map(|c| engine.revalidate(&c))
                .collect();
        }
        if batching {
            report.batch_candidates += cands_len;
            report.batch_accepted += accepted_this_pass;
            // A drained wave can apply more rectangles than the search
            // returned candidates (a re-validated candidate applies
            // under a fresh support), so the rejected count saturates.
            report.batch_rejected += cands_len.saturating_sub(accepted_this_pass);
            lane.event("batch", || {
                vec![
                    ("candidates", cands_len as i64),
                    ("accepted", accepted_this_pass as i64),
                ]
            });
        }
    }
    lane.end(cover_span);
    // `tile` phase counters: how the resident panel mirror was kept in
    // sync across the cover's passes (full rebuilds vs incrementally
    // re-encoded columns). Emitted once per run — the counters are
    // cumulative over the pool's passes (zero for a pool-less engine,
    // which builds a fresh panel per search).
    let (rebuilds, synced_cols) = engine.tile_counters();
    lane.event("tile", || {
        vec![
            ("rebuilds", rebuilds as i64),
            ("synced_cols", synced_cols as i64),
        ]
    });
    *pool = engine.take_pool();
    report.lc_after = nw.literal_count();
    report.elapsed = start.elapsed();
    report.setup = matrix_elapsed;
    report.phases = vec![
        PhaseTiming::new("matrix", matrix_elapsed),
        PhaseTiming::new("pool", pool_elapsed),
        PhaseTiming::new(
            "cover",
            report.elapsed.saturating_sub(matrix_elapsed + pool_elapsed),
        ),
    ];
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_network::example::example_1_1;
    use pf_network::sim::{equivalent_random, EquivConfig};

    #[test]
    fn example_1_1_reaches_21_literals() {
        // Greedy maximum-rectangle extraction on the paper's network:
        // 33 → 25 (X = a+b, value 8) → 22 (Y = a+c, value 3)
        //    → 21 (Z = X+c, value 1). SIS's gkx stops at 22; the exact
        // rectangle cover finds one more single-row factor.
        let (mut nw, _ids) = example_1_1();
        let original = nw.clone();
        let report = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert_eq!(report.lc_before, 33);
        assert_eq!(report.lc_after, 21);
        assert_eq!(report.extractions, 3);
        assert_eq!(report.total_value, 12);
        assert!(!report.budget_exhausted);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn first_extraction_is_a_plus_b() {
        let (mut nw, ids) = example_1_1();
        let cfg = ExtractConfig {
            max_extractions: 1,
            ..ExtractConfig::default()
        };
        let report = extract_kernels(&mut nw, &[], &cfg);
        assert_eq!(report.lc_after, 25);
        assert_eq!(report.total_value, 8);
        let x = nw.find("kx_0").unwrap();
        // X = a + b
        assert_eq!(nw.func(x).num_cubes(), 2);
        assert_eq!(nw.func(x).literal_count(), 2);
        // F and G use it, H doesn't.
        assert!(nw.fanins(ids.f).contains(&x));
        assert!(nw.fanins(ids.g).contains(&x));
        assert!(!nw.fanins(ids.h).contains(&x));
    }

    #[test]
    fn targets_restrict_the_candidate_set() {
        // Only F: the a+b rectangle over F alone has value
        // 10 − 5 − 2 = 3; the best F-only rectangle overall is checked
        // just for positivity and that G, H stay untouched.
        let (mut nw, ids) = example_1_1();
        let g_before = nw.func(ids.g).clone();
        let h_before = nw.func(ids.h).clone();
        let report = extract_kernels(&mut nw, &[ids.f], &ExtractConfig::default());
        assert!(report.lc_after < report.lc_before);
        assert_eq!(nw.func(ids.g), &g_before);
        assert_eq!(nw.func(ids.h), &h_before);
    }

    #[test]
    fn no_kernels_means_no_extractions() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let f = nw
            .add_node(
                "f",
                Sop::from_cubes([Cube::from_lits([pf_sop::Lit::pos(a), pf_sop::Lit::pos(b)])]),
            )
            .unwrap();
        nw.mark_output(f).unwrap();
        let report = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert_eq!(report.extractions, 0);
        assert_eq!(report.lc_before, report.lc_after);
    }

    #[test]
    fn expired_deadline_stops_before_any_extraction() {
        let (mut nw, _) = example_1_1();
        let cfg = ExtractConfig {
            ctl: RunCtl::with_deadline(std::time::Duration::ZERO),
            ..ExtractConfig::default()
        };
        let report = extract_kernels(&mut nw, &[], &cfg);
        assert!(report.timed_out);
        assert!(!report.cancelled);
        assert_eq!(report.extractions, 0);
        assert_eq!(report.lc_after, report.lc_before);
    }

    #[test]
    fn cancelled_ctl_stops_and_reports() {
        let (mut nw, _) = example_1_1();
        let cfg = ExtractConfig::default();
        cfg.ctl.cancel();
        let report = extract_kernels(&mut nw, &[], &cfg);
        assert!(report.cancelled);
        assert!(!report.timed_out);
        assert_eq!(report.extractions, 0);
    }

    #[test]
    fn phases_cover_elapsed() {
        let (mut nw, _) = example_1_1();
        let report = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.phases[0].name, "matrix");
        assert_eq!(report.phases[1].name, "pool");
        assert_eq!(report.phases[2].name, "cover");
        let sum: std::time::Duration = report.phases.iter().map(|p| p.elapsed).sum();
        assert!(sum <= report.elapsed + std::time::Duration::from_millis(1));
    }

    #[test]
    fn pooled_engine_matches_classic_across_thread_counts() {
        // Byte-identical extraction across engine modes: classic
        // sequential (par_threads = 0) vs the pooled executor at several
        // widths, on the paper network where the canonical parallel
        // winner coincides with the classic one at every pass.
        let (classic_nw, _) = example_1_1();
        let mut classic = classic_nw.clone();
        let classic_report = extract_kernels(&mut classic, &[], &ExtractConfig::default());
        for threads in [1usize, 2, 4] {
            let mut cfg = ExtractConfig::default();
            cfg.search.par_threads = threads;
            let (mut nw, _) = example_1_1();
            let report = extract_kernels(&mut nw, &[], &cfg);
            assert_eq!(
                report.lc_after, classic_report.lc_after,
                "threads={threads}"
            );
            assert_eq!(report.total_value, classic_report.total_value);
            assert_eq!(report.extractions, classic_report.extractions);
            // Byte-identical networks: same nodes, names and functions.
            let dump = |n: &Network| {
                let mut v: Vec<String> = n
                    .node_ids()
                    .map(|id| format!("{}={:?}", n.name(id), n.func(id)))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(dump(&nw), dump(&classic), "threads={threads}");
        }
    }

    #[test]
    fn pooled_run_reuses_one_pool_and_never_respawns_mid_cover() {
        let mut cfg = ExtractConfig::default();
        cfg.search.par_threads = 2;
        let (mut nw, _) = example_1_1();
        let mut pool = None;
        let report = extract_kernels_pooled(&mut nw, &[], &cfg, &mut pool);
        assert_eq!(report.lc_after, 21);
        let pool = pool.expect("pooled run hands the pool back");
        // One background worker for a 2-wide run, spawned exactly once
        // (in the pool phase), however many passes the cover loop ran.
        assert_eq!(pool.spawned_threads(), 1);
        assert!(pool.passes() >= report.extractions as u64);
    }

    #[test]
    fn pool_slot_survives_across_jobs() {
        let mut cfg = ExtractConfig::default();
        cfg.search.par_threads = 2;
        let mut pool = None;
        let mut last_lc = 0;
        for _ in 0..3 {
            let (mut nw, _) = example_1_1();
            let report = extract_kernels_pooled(&mut nw, &[], &cfg, &mut pool);
            last_lc = report.lc_after;
        }
        assert_eq!(last_lc, 21);
        // Three jobs, one pool, one spawn: jobs 2 and 3 adopted it warm.
        assert_eq!(pool.expect("slot refilled").spawned_threads(), 1);
    }

    #[test]
    fn fresh_name_counter_skips_existing_extraction_names() {
        // A network that already contains kx_0/kx_7 (e.g. from an earlier
        // extraction pass) must not make apply probe 8 occupied names.
        let (mut nw, _) = example_1_1();
        let report1 = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert!(report1.extractions > 0);
        // Second run over the already-extracted network: new names start
        // past the existing kx_* block and extraction still converges.
        let report2 = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert!(report2.lc_after <= report1.lc_after);
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn max_extractions_caps_the_loop() {
        let (mut nw, _) = example_1_1();
        let cfg = ExtractConfig {
            max_extractions: 2,
            ..ExtractConfig::default()
        };
        let report = extract_kernels(&mut nw, &[], &cfg);
        assert_eq!(report.extractions, 2);
        assert_eq!(report.lc_after, 22); // the SIS stopping point
    }

    #[test]
    fn lc_drop_matches_total_value() {
        let (mut nw, _) = example_1_1();
        let report = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert_eq!(
            report.lc_before as i64 - report.lc_after as i64,
            report.total_value
        );
    }

    #[test]
    fn extract_from_new_false_skips_new_nodes() {
        let (mut nw, _) = example_1_1();
        let cfg = ExtractConfig {
            extract_from_new: false,
            ..ExtractConfig::default()
        };
        let report = extract_kernels(&mut nw, &[], &cfg);
        // Same result here (new nodes are tiny), but the engine must not
        // crash and must still converge.
        assert!(report.lc_after <= 25);
    }

    #[test]
    fn engine_stepwise_matches_batch() {
        let (mut nw1, _) = example_1_1();
        let (mut nw2, _) = example_1_1();
        let targets: Vec<SignalId> = nw1.node_ids().collect();
        let mut engine = Engine::new(&nw1, &targets, ExtractConfig::default());
        while let Some(rect) = engine.search(None).0.first().cloned() {
            engine.apply(&mut nw1, &rect);
        }
        extract_kernels(&mut nw2, &[], &ExtractConfig::default());
        assert_eq!(nw1.literal_count(), nw2.literal_count());
    }

    #[test]
    fn batched_cover_keeps_quality_and_counts_passes() {
        let (mut nw0, _) = example_1_1();
        let oracle = extract_kernels(&mut nw0, &[], &ExtractConfig::default());
        assert_eq!(oracle.passes, oracle.extractions + 1);
        assert_eq!(oracle.batch_candidates, 0);
        for topk in [2usize, 4, 16] {
            let mut cfg = ExtractConfig::default();
            cfg.search.topk = topk;
            let (mut nw, _) = example_1_1();
            let original = nw.clone();
            let report = extract_kernels(&mut nw, &[], &cfg);
            // The tiny paper network: every candidate overlaps F/G/H, so
            // batching converges to the byte-same 21-literal result.
            assert_eq!(report.lc_after, oracle.lc_after, "topk={topk}");
            assert!(report.passes <= oracle.passes);
            assert_eq!(report.batch_accepted, report.extractions);
            assert_eq!(
                report.batch_candidates,
                report.batch_accepted + report.batch_rejected
            );
            assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
            assert!(nw.validate().is_ok());
        }
    }

    #[test]
    fn batch_drain_cuts_passes_on_planted_kernels() {
        // A network with node-disjoint planted kernels batches several
        // extractions per pass; the drain loop re-validates rejected
        // candidates so a pass keeps applying until the pool is dry.
        let profile = pf_workloads::CircuitProfile::small("batchtest", 7);
        let mut cfg = ExtractConfig::default();
        let mut nw = pf_workloads::generate(&profile);
        let oracle = extract_kernels(&mut nw, &[], &cfg);
        assert!(oracle.extractions >= 4, "workload must have extractions");

        cfg.search.topk = 16;
        let mut nwb = pf_workloads::generate(&profile);
        let report = extract_kernels(&mut nwb, &[], &cfg);
        assert!(
            report.passes < oracle.passes,
            "batching must cut passes: {} vs {}",
            report.passes,
            oracle.passes
        );
        assert!(report.rects_per_pass() > 1.0);
        // Quality parity within 1% of the one-per-pass oracle.
        let tol = (oracle.lc_after as f64 * 0.01).ceil() as usize;
        assert!(
            report.lc_after <= oracle.lc_after + tol,
            "batched {} vs oracle {}",
            report.lc_after,
            oracle.lc_after
        );
        assert!(nwb.validate().is_ok());
    }

    #[test]
    fn batched_extractions_never_inflate_over_singular() {
        // Regression: the wave-drain loop used to re-validate conflict
        // losers whose kernel columns an earlier wave of the same pass
        // had already extracted. A loser could come back with a smaller
        // live support and positive value, re-extracting an
        // already-covered kernel into a duplicate node — more
        // extractions than the one-per-pass path for the same (or
        // worse) final literal count. With the applied-column dedupe,
        // batching can only merge passes, never invent extractions.
        for seed in [7u64, 13, 29] {
            let mut profile = pf_workloads::scale_profile(
                &pf_workloads::profile_by_name("dalu").expect("dalu profile exists"),
                0.35,
            );
            profile.seed = seed;
            let mut nw1 = pf_workloads::generate(&profile);
            let oracle = extract_kernels(&mut nw1, &[], &ExtractConfig::default());
            for topk in [4usize, 16] {
                let mut cfg = ExtractConfig::default();
                cfg.search.topk = topk;
                let mut nwb = pf_workloads::generate(&profile);
                let report = extract_kernels(&mut nwb, &[], &cfg);
                assert!(
                    report.extractions <= oracle.extractions,
                    "seed={seed} topk={topk}: batched {} extractions vs singular {}",
                    report.extractions,
                    oracle.extractions
                );
                assert!(
                    report.lc_after <= oracle.lc_after,
                    "seed={seed} topk={topk}: batched lc {} vs singular {}",
                    report.lc_after,
                    oracle.lc_after
                );
                assert!(nwb.validate().is_ok());
            }
        }
    }

    #[test]
    fn batched_max_extractions_still_caps() {
        let (mut nw, _) = example_1_1();
        let mut cfg = ExtractConfig {
            max_extractions: 2,
            ..ExtractConfig::default()
        };
        cfg.search.topk = 8;
        let report = extract_kernels(&mut nw, &[], &cfg);
        assert!(report.extractions <= 2);
    }

    #[test]
    fn parallel_generation_matches_sequential_matrix() {
        // §3's labeled parallel generation must produce the same rows
        // and columns as the serial build, for any generator count.
        let (nw, _) = example_1_1();
        let targets: Vec<SignalId> = nw.node_ids().collect();
        let serial = Engine::new(&nw, &targets, ExtractConfig::default());
        for procs in [1usize, 2, 3, 7] {
            let par = Engine::new_parallel(&nw, &targets, ExtractConfig::default(), procs);
            assert_eq!(
                par.matrix().num_alive_rows(),
                serial.matrix().num_alive_rows(),
                "procs={procs}"
            );
            assert_eq!(par.matrix().cols().len(), serial.matrix().cols().len());
            assert_eq!(par.matrix().num_entries(), serial.matrix().num_entries());
            // Same multiset of (node, co-kernel, kernel-cube) triples.
            let sig = |e: &Engine| {
                let mut v: Vec<(u32, Cube, Cube)> = e
                    .matrix()
                    .rows()
                    .iter()
                    .flat_map(|r| {
                        r.entries
                            .iter()
                            .map(|&(c, _)| {
                                (
                                    r.node,
                                    r.cokernel.clone(),
                                    e.matrix().cols()[c].cube.clone(),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect();
                v.sort();
                v
            };
            assert_eq!(sig(&par), sig(&serial), "procs={procs}");
        }
    }

    #[test]
    fn parallel_generation_extraction_reaches_same_quality() {
        let (mut nw, _) = example_1_1();
        let targets: Vec<SignalId> = nw.node_ids().collect();
        let mut engine = Engine::new_parallel(&nw, &targets, ExtractConfig::default(), 3);
        while let Some(rect) = engine.search(None).0.first().cloned() {
            engine.apply(&mut nw, &rect);
        }
        assert_eq!(nw.literal_count(), 21);
    }

    #[test]
    fn parallel_generation_is_deterministic_across_proc_counts_labels() {
        // Rows generated by processor p carry labels in p's block.
        let (nw, _) = example_1_1();
        let targets: Vec<SignalId> = nw.node_ids().collect();
        let par = Engine::new_parallel(&nw, &targets, ExtractConfig::default(), 2);
        let blocks: std::collections::BTreeSet<u64> = par
            .matrix()
            .rows()
            .iter()
            .map(|r| r.label / pf_kcmatrix::LabelGen::DEFAULT_OFFSET)
            .collect();
        assert!(blocks.len() >= 2, "both generator blocks used: {blocks:?}");
    }

    use pf_network::Network;
    use pf_sop::{Cube, Sop};
}
