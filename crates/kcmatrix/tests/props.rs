//! Property tests for the KC matrix and rectangle search: matrix
//! entries really cover network cubes, the exact search dominates the
//! greedy one, stripes partition the space, and the state machine obeys
//! Table 5 under arbitrary operation sequences.

use pf_kcmatrix::{
    canonical_top_k, conflicts, reference, revalidate_rectangle, search, select_nonconflicting,
    CeilingUpdate, ColIdx, CostModel, CubeId, CubeRegistry, CubeState, CubeStates, KcMatrix,
    LabelGen, Rectangle, RowSet, SearchConfig, SearchPool, SearchStats, TilePanels,
};
use pf_sop::kernel::KernelConfig;
use pf_sop::{Cube, Lit, Sop};
use proptest::prelude::*;

fn arb_sop(nvars: u32, max_len: usize, max_cubes: usize) -> impl Strategy<Value = Sop> {
    arb_sop_min_len(nvars, 1, max_len, max_cubes)
}

/// [`arb_sop`] whose cubes hold at least `min_len` literals: without
/// single-literal cubes absorbing their supersets, functions keep more
/// cubes and share more kernels, so matrices have more rectangles.
fn arb_sop_min_len(
    nvars: u32,
    min_len: usize,
    max_len: usize,
    max_cubes: usize,
) -> impl Strategy<Value = Sop> {
    prop::collection::vec(
        prop::collection::btree_set(0..nvars, min_len..=max_len),
        1..=max_cubes,
    )
    .prop_map(|cubes| {
        Sop::from_cubes(
            cubes
                .into_iter()
                .map(|vs| Cube::from_lits(vs.into_iter().map(Lit::pos))),
        )
    })
}

/// `count` functions, all drawn either from [`arb_sop`]`(8, 4, 8)` — the
/// general input, with single-literal cubes absorbing their supersets —
/// or from the rectangle-rich [`arb_sop_min_len`]`(7, 2, 3, 10)`.
fn arb_funcs(count: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Sop>> {
    (
        any::<bool>(),
        prop::collection::vec(arb_sop(8, 4, 8), count.clone()),
        prop::collection::vec(arb_sop_min_len(7, 2, 3, 10), count),
    )
        .prop_map(|(rich, general, rectangle_rich)| if rich { rectangle_rich } else { general })
}

/// The best rectangle of one area-model search; `pool = None` takes the
/// sequential engine (or a call-scoped pool when `par_threads >= 1`).
fn best(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
    pool: Option<(&mut SearchPool, CeilingUpdate<'_>)>,
) -> (Option<Rectangle>, SearchStats) {
    let (rects, stats) = search(m, &CostModel::area(value_of), cfg, None, pool);
    (rects.into_iter().next(), stats)
}

fn build_matrix(funcs: &[Sop]) -> (KcMatrix, Vec<u32>) {
    let reg = CubeRegistry::new();
    let mut m = KcMatrix::new();
    let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    for (i, f) in funcs.iter().enumerate() {
        m.add_node_kernels(
            i as u32,
            f,
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
    }
    let w = reg.weights_snapshot();
    (m, w)
}

/// Brute-force canonical top-`k`: every subset of every alive row's
/// columns with at least `min_cols` columns and a stripe-admitted
/// leftmost column, re-validated to its maximal support and exact
/// value, deduplicated and ranked by [`canonical_top_k`]. Every column
/// set the search can reach is such a subset (its support is non-empty,
/// so some alive row holds all of its columns), and every such subset
/// is one the search enumerates — so this is the exact answer the
/// canonical engines must return.
fn brute_force_top_k(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    k: usize,
) -> Vec<Rectangle> {
    let mut sets: std::collections::BTreeSet<Vec<ColIdx>> = std::collections::BTreeSet::new();
    for row in m.rows().iter().filter(|r| r.alive) {
        let cols: Vec<ColIdx> = row.entries.iter().map(|&(c, _)| c).collect();
        assert!(cols.len() < 32, "row too wide to brute-force");
        for mask in 1u32..(1u32 << cols.len()) {
            let subset: Vec<ColIdx> = cols
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &c)| c)
                .collect();
            let admitted = match cfg.stripe {
                Some((proc, nprocs)) => subset[0] as u32 % nprocs == proc,
                None => true,
            };
            if subset.len() >= cfg.min_cols && admitted {
                sets.insert(subset);
            }
        }
    }
    let candidates: Vec<Rectangle> = sets
        .into_iter()
        .filter_map(|cols| {
            let probe = Rectangle {
                rows: Vec::new(),
                cols,
                value: 0,
            };
            revalidate_rectangle(m, model, cfg, &probe)
        })
        .collect();
    canonical_top_k(&candidates, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every matrix entry covers an actual cube of its node's function,
    /// and the entry weight is that cube's literal count.
    #[test]
    fn entries_cover_real_cubes(funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4)) {
        let (m, w) = build_matrix(&funcs);
        for row in m.rows() {
            for &(c, id) in &row.entries {
                let covered = row.cokernel.product(&m.cols()[c].cube).unwrap();
                prop_assert!(funcs[row.node as usize].contains_cube(&covered));
                prop_assert_eq!(w[id as usize], covered.len() as u32);
            }
        }
    }

    /// The returned rectangle's value is consistent with a direct
    /// recomputation, and applying it can never lose literals.
    #[test]
    fn best_rectangle_value_is_exact(funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4)) {
        let (m, w) = build_matrix(&funcs);
        let (found, _) = best(&m, &|id| w[id as usize], &SearchConfig::default(), None);
        let Some(rect) = found else { return Ok(()) };
        prop_assert!(rect.value > 0);
        // Recompute: Σ distinct covered − row costs − col costs.
        let mut seen = std::collections::HashSet::new();
        let mut total: i64 = -rect.cols.iter()
            .map(|&c| m.cols()[c].cube.len() as i64).sum::<i64>();
        for &r in &rect.rows {
            let row = &m.rows()[r];
            total -= row.cokernel.len() as i64 + 1;
            for &c in &rect.cols {
                let id = row.entry(c).unwrap();
                if seen.insert(id) {
                    total += w[id as usize] as i64;
                }
            }
        }
        prop_assert_eq!(total, rect.value);
    }

    /// The union of striped searches finds the global optimum value.
    #[test]
    fn stripes_cover_the_space(
        funcs in prop::collection::vec(arb_sop(8, 3, 7), 1..4),
        nprocs in 2u32..5,
    ) {
        let (m, w) = build_matrix(&funcs);
        let global = best(&m, &|id| w[id as usize], &SearchConfig::default(), None)
            .0
            .map_or(0, |r| r.value);
        let mut striped = 0i64;
        for p in 0..nprocs {
            let cfg = SearchConfig { stripe: Some((p, nprocs)), ..SearchConfig::default() };
            if let (Some(r), _) = best(&m, &|id| w[id as usize], &cfg, None) {
                striped = striped.max(r.value);
            }
        }
        prop_assert_eq!(striped, global);
    }

    /// Zeroing cube values can only lower the best rectangle's value.
    #[test]
    fn covering_is_monotone(
        funcs in prop::collection::vec(arb_sop(8, 3, 7), 1..4),
        mask in prop::collection::vec(any::<bool>(), 64),
    ) {
        let (m, w) = build_matrix(&funcs);
        let full = best(&m, &|id| w[id as usize], &SearchConfig::default(), None)
            .0.map_or(0, |r| r.value);
        let masked = best(&m, &|id| {
            if mask.get(id as usize).copied().unwrap_or(false) { 0 } else { w[id as usize] }
        }, &SearchConfig::default(), None).0.map_or(0, |r| r.value);
        prop_assert!(masked <= full);
    }

    /// The Table 5 state machine: arbitrary claim/release/divide
    /// sequences keep every cube in a legal state and DIVIDED absorbing.
    #[test]
    fn state_machine_is_sound(ops in prop::collection::vec((0u32..8, 0u16..4, 0u8..3), 0..200)) {
        let st = CubeStates::with_len(8);
        let mut divided = [false; 8];
        for (id, proc, op) in ops {
            match op {
                0 => { st.claim(id, proc); }
                1 => { st.release(id, proc); }
                _ => { st.mark_divided(id); divided[id as usize] = true; }
            }
            if divided[id as usize] {
                prop_assert_eq!(st.state(id), CubeState::Divided);
            }
            match st.state(id) {
                CubeState::Free => {
                    prop_assert_eq!(st.value_for(id, 7, 0), 7);
                }
                CubeState::Covered(owner) => {
                    prop_assert_eq!(st.value_for(id, 7, owner), 7);
                    prop_assert_eq!(st.value_for(id, 7, owner + 1), 0);
                }
                CubeState::Divided => {
                    prop_assert_eq!(st.value_for(id, 7, proc), 0);
                }
            }
        }
    }

    /// The search engine is a drop-in replacement for the legacy vec
    /// search: identical rectangle, value, and stats on arbitrary
    /// matrices, with and without stripes, for min_cols ∈ {1, 2},
    /// budget truncation included.
    #[test]
    fn bitset_search_equals_vec_search(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        striped in any::<bool>(),
        proc in 0u32..4,
        nprocs in 1u32..4,
        min_cols in 1usize..3,
        tight_budget in any::<bool>(),
        budget in 1u64..40,
    ) {
        let (m, w) = build_matrix(&funcs);
        let cfg = SearchConfig {
            stripe: striped.then_some((proc % nprocs, nprocs)),
            min_cols,
            budget: if tight_budget { budget } else { SearchConfig::default().budget },
            ..SearchConfig::default()
        };
        let value_of = |id: CubeId| w[id as usize];
        let (bit, bit_stats) = best(&m, &value_of, &cfg, None);
        let (vec, vec_stats) = reference::search(&m, &CostModel::area(&value_of), &cfg);
        prop_assert_eq!(bit, vec);
        prop_assert_eq!(bit_stats.visited, vec_stats.visited);
        prop_assert_eq!(bit_stats.budget_exhausted, vec_stats.budget_exhausted);
    }

    /// Every engine returns the brute-force canonical top-K: the
    /// canonical engines (`par_threads` 1 and 2) exactly, for K in 1..5;
    /// the sequential engine exactly for K ≥ 2, and at K = 1 — where it
    /// keeps the first maximum in enumeration order instead of the
    /// canonical one — a rectangle of the same value.
    #[test]
    fn search_matches_brute_force_top_k(
        funcs in arb_funcs(1..5),
        striped in any::<bool>(),
        proc in 0u32..4,
        nprocs in 1u32..4,
        min_cols in 1usize..3,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        let model = CostModel::area(&value_of);
        for topk in 1usize..5 {
            let base = SearchConfig {
                stripe: striped.then_some((proc % nprocs, nprocs)),
                min_cols,
                topk,
                ..SearchConfig::default()
            };
            let want = brute_force_top_k(&m, &model, &base, topk);
            for threads in [0usize, 1, 2] {
                let cfg = SearchConfig { par_threads: threads, ..base.clone() };
                let (got, stats) = search(&m, &model, &cfg, None, None);
                prop_assert!(!stats.budget_exhausted);
                if threads == 0 && topk == 1 {
                    prop_assert_eq!(
                        got.iter().map(|r| r.value).collect::<Vec<_>>(),
                        want.iter().map(|r| r.value).collect::<Vec<_>>(),
                        "sequential K=1 value"
                    );
                } else {
                    prop_assert_eq!(&got, &want, "topk={} threads={}", topk, threads);
                }
            }
        }
    }

    /// RowSet is exact on the trailing partial word: for universes that
    /// are not multiples of 64, construction, iteration, membership and
    /// `len` all agree with the reference BTreeSet semantics, and no
    /// stray bits survive past the universe.
    #[test]
    fn rowset_trailing_word_is_exact(
        universe in 1usize..200,
        xs in prop::collection::vec(0usize..4096, 0..48),
    ) {
        use std::collections::BTreeSet;
        let xs: BTreeSet<usize> = xs.iter().map(|i| i % universe).collect();
        let sa = RowSet::from_indices(xs.iter().copied(), universe);
        prop_assert_eq!(sa.iter().collect::<Vec<_>>(), xs.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.len(), xs.len());
        for probe in universe.saturating_sub(3)..universe {
            prop_assert_eq!(sa.contains(probe), xs.contains(&probe));
        }
        // Words are canonical: exactly ceil(universe / 64) of them, and
        // nothing set in the slack bits of the final word.
        prop_assert_eq!(sa.as_words().len(), universe.div_ceil(64));
        let slack = universe % 64;
        if slack != 0 {
            prop_assert_eq!(sa.as_words().last().unwrap() >> slack, 0);
        }
    }

    /// Tile panels stay a faithful mirror of the matrix across
    /// tombstone/append sequences when synced through the dirty-column
    /// contract: tombstoned rows' columns plus appended rows' columns.
    #[test]
    fn tile_panels_survive_mutation(
        funcs in prop::collection::vec(arb_sop(8, 3, 7), 2..4),
        extra in arb_sop(8, 3, 6),
        kills in prop::collection::vec(0usize..4096, 1..6),
    ) {
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        for (i, f) in funcs.iter().enumerate() {
            m.add_node_kernels(i as u32, f, &KernelConfig::default(), &reg, &mut rl, &mut cl);
        }
        if m.rows().is_empty() {
            return Ok(());
        }
        let mut panel = TilePanels::build(m.rows().len(), m.cols());
        // Round 1: tombstone some rows, sync with their columns dirty.
        let mut dirty: Vec<usize> = Vec::new();
        for k in &kills {
            let r = k % m.rows().len();
            if !m.rows()[r].alive {
                continue;
            }
            dirty.extend(m.rows()[r].entries.iter().map(|&(c, _)| c));
            m.tombstone_row(r);
        }
        dirty.sort_unstable();
        dirty.dedup();
        let rebuilt = panel.sync(m.rows().len(), m.cols(), &dirty);
        prop_assert!(!rebuilt, "tombstones never force a rebuild");
        for (c, col) in m.cols().iter().enumerate() {
            let set = RowSet::from_indices(col.rows.iter().copied(), m.rows().len());
            prop_assert_eq!(panel.col_words(c), set.as_words(), "col {} after tombstones", c);
        }
        // Round 2: append a node, sync with the new rows' columns dirty.
        let before = m.rows().len();
        m.add_node_kernels(
            funcs.len() as u32, &extra, &KernelConfig::default(), &reg, &mut rl, &mut cl,
        );
        let mut dirty: Vec<usize> = m.rows()[before..]
            .iter()
            .flat_map(|row| row.entries.iter().map(|&(c, _)| c))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        panel.sync(m.rows().len(), m.cols(), &dirty);
        for (c, col) in m.cols().iter().enumerate() {
            let set = RowSet::from_indices(col.rows.iter().copied(), m.rows().len());
            prop_assert_eq!(panel.col_words(c), set.as_words(), "col {} after append", c);
        }
    }

    /// The parallel engine returns the same `Rectangle` no matter the
    /// thread count, and its value matches the sequential optimum.
    #[test]
    fn parallel_search_is_thread_count_independent(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        min_cols in 1usize..3,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        let base = SearchConfig { min_cols, ..SearchConfig::default() };
        let (seq, _) = best(&m, &value_of, &base, None);
        let (one, _) = best(&m, &value_of, &SearchConfig { par_threads: 1, ..base.clone() }, None);
        let (four, _) = best(&m, &value_of, &SearchConfig { par_threads: 4, ..base }, None);
        prop_assert_eq!(&one, &four, "1 vs 4 threads must agree exactly");
        prop_assert_eq!(
            one.as_ref().map(|r| r.value),
            seq.map(|r| r.value),
            "parallel value must match the sequential optimum"
        );
    }

    /// A warm pool is stateless across passes unless ceilings say
    /// otherwise: repeated identical passes through one pool return the
    /// same rectangle, both with ceilings off and with the
    /// `Reset` → `Dirty(&[])` cross-pass protocol (no mutation, nothing
    /// dirty, so ceilings may only prune work — never change the result).
    #[test]
    fn warm_pool_repeats_are_identical(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        threads in 1usize..5,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        let cfg = SearchConfig { par_threads: threads, ..SearchConfig::default() };
        let mut pool = SearchPool::new();
        let (first, _) = best(&m, &value_of, &cfg, Some((&mut pool, CeilingUpdate::Off)));
        // Pass widths are clamped to the available tasks, so the first
        // pass may spawn fewer than `threads - 1` background workers —
        // but identical repeats must never spawn another thread.
        let spawned_cold = pool.spawned_threads();
        prop_assert!(spawned_cold <= threads.saturating_sub(1) as u64);
        for _ in 0..2 {
            let (again, _) = best(&m, &value_of, &cfg, Some((&mut pool, CeilingUpdate::Off)));
            prop_assert_eq!(&again, &first);
        }
        let (reset, _) = best(&m, &value_of, &cfg, Some((&mut pool, CeilingUpdate::Reset)));
        prop_assert_eq!(&reset, &first);
        for _ in 0..2 {
            let (ceiled, _) =
                best(&m, &value_of, &cfg, Some((&mut pool, CeilingUpdate::Dirty(&[]))));
            prop_assert_eq!(&ceiled, &first);
        }
        prop_assert_eq!(pool.spawned_threads(), spawned_cold, "warm repeats spawned threads");
    }

    /// Ceiling invalidation and the incremental panel sync are sound
    /// across matrix mutation: after tombstoning the best rectangle's
    /// rows (the cover loop's mutation shape), a warm pooled pass told
    /// only those rows' columns are dirty re-encodes them in place
    /// (no panel rebuild) and finds exactly the top-K a fresh pool finds
    /// on the new matrix — which is also the brute-force top-K.
    #[test]
    fn dirty_column_ceilings_survive_mutation(
        funcs in arb_funcs(2..4),
        threads in 1usize..4,
        topk in 1usize..4,
    ) {
        let (mut m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        let model = CostModel::area(&value_of);
        let cfg = SearchConfig { par_threads: threads, topk, ..SearchConfig::default() };
        let mut pool = SearchPool::new();
        let (first, _) = search(&m, &model, &cfg, None, Some((&mut pool, CeilingUpdate::Reset)));
        prop_assert_eq!(pool.tile_rebuilds(), 1, "first pass builds the panel once");
        let Some(rect) = first.first() else { return Ok(()) };
        // Tombstone the winning rows; their columns are exactly the
        // dirty set (no rows were appended).
        let mut dirty: Vec<ColIdx> = rect
            .rows
            .iter()
            .flat_map(|&r| m.rows()[r].entries.iter().map(|&(c, _)| c))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        for &r in &rect.rows {
            m.tombstone_row(r);
        }
        let (fresh, _) =
            search(&m, &model, &cfg, None, Some((&mut SearchPool::new(), CeilingUpdate::Off)));
        let (warm, _) =
            search(&m, &model, &cfg, None, Some((&mut pool, CeilingUpdate::Dirty(&dirty))));
        prop_assert_eq!(&warm, &fresh, "threads={} topk={}", threads, topk);
        prop_assert_eq!(&warm, &brute_force_top_k(&m, &model, &cfg, topk));
        prop_assert_eq!(pool.tile_rebuilds(), 1, "dirty pass syncs in place");
    }

    /// A batch selected from top-K candidates is genuinely conflict-free
    /// (pairwise) and maximal: every rejected candidate conflicts with
    /// at least one selected rectangle.
    #[test]
    fn selected_batch_is_conflict_free_and_maximal(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        topk in 2usize..12,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        let cfg = SearchConfig { topk, ..SearchConfig::default() };
        let (cands, _) = search(&m, &CostModel::area(&value_of), &cfg, None, None);
        let selected = select_nonconflicting(&m, &cands, usize::MAX);
        for (i, a) in selected.iter().enumerate() {
            for b in &selected[i + 1..] {
                prop_assert!(!conflicts(&m, a, b), "selected pair conflicts");
                prop_assert!(!conflicts(&m, b, a), "conflict must be symmetric here");
            }
        }
        for c in cands.iter().filter(|c| !selected.contains(c)) {
            prop_assert!(
                selected.iter().any(|s| conflicts(&m, s, c)),
                "rejected candidate conflicts with nothing — selection not maximal"
            );
        }
        // The canonical best candidate is always selected first.
        if let Some(first) = cands.first() {
            prop_assert_eq!(selected.first(), Some(first));
        }
    }

    /// Tombstoning a node's rows leaves the matrix consistent.
    #[test]
    fn remove_rows_keeps_consistency(funcs in prop::collection::vec(arb_sop(8, 3, 7), 2..4)) {
        let (mut m, _) = build_matrix(&funcs);
        m.remove_node_rows(0);
        for col in m.cols() {
            for &r in &col.rows {
                prop_assert!(m.rows()[r].alive);
                prop_assert_ne!(m.rows()[r].node, 0);
            }
        }
        for row in m.rows().iter().filter(|r| r.alive) {
            prop_assert_ne!(row.node, 0);
        }
    }

    /// The per-node row index and the column row lists track a shadow
    /// model of which rows are alive under any sequence of row additions,
    /// single tombstones and whole-node removals: `node_rows(n)` is the
    /// sorted alive rows of `n`, and every column lists exactly the
    /// sorted alive rows with an entry in it.
    #[test]
    fn node_index_tracks_alive_rows(
        ops in prop::collection::vec(
            (0u8..4, 0u32..4, any::<usize>(), arb_sop(6, 3, 5)),
            1..24,
        ),
    ) {
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        // Shadow model: (node, alive) per row index.
        let mut model: Vec<(u32, bool)> = Vec::new();
        for (op, node, pick, func) in ops {
            match op {
                0 => {
                    let added = m.add_node_kernels(
                        node,
                        &func,
                        &KernelConfig::default(),
                        &reg,
                        &mut rl,
                        &mut cl,
                    );
                    for r in added {
                        prop_assert_eq!(r, model.len());
                        model.push((node, true));
                    }
                }
                1 => {
                    let entries: Vec<(Cube, u32)> = func
                        .iter()
                        .map(|c| (c.clone(), reg.intern(node, c)))
                        .collect();
                    let cokernel = Cube::single(Lit::pos(10 + node));
                    let r = m.add_row_with_entries(rl.next(), node, cokernel, entries, &mut cl);
                    prop_assert_eq!(r, model.len());
                    model.push((node, true));
                }
                2 => {
                    if !model.is_empty() {
                        let r = pick % model.len();
                        m.tombstone_row(r);
                        model[r].1 = false;
                    }
                }
                _ => {
                    m.remove_node_rows(node);
                    for row in model.iter_mut().filter(|row| row.0 == node) {
                        row.1 = false;
                    }
                }
            }
            for n in 0..4u32 {
                let want: Vec<usize> = (0..model.len())
                    .filter(|&r| model[r] == (n, true))
                    .collect();
                prop_assert_eq!(m.node_rows(n), &want[..], "node {}", n);
            }
            for (r, row) in m.rows().iter().enumerate() {
                prop_assert_eq!(row.alive, model[r].1, "row {}", r);
            }
            for (c, col) in m.cols().iter().enumerate() {
                let want: Vec<usize> = (0..model.len())
                    .filter(|&r| model[r].1 && m.rows()[r].entry(c).is_some())
                    .collect();
                prop_assert_eq!(&col.rows, &want, "column {}", c);
            }
        }
    }
}
