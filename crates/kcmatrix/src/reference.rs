//! Reference rectangle search: the original sorted-`Vec<RowIdx>`
//! implementation, kept verbatim as a differential-testing oracle for
//! the tiled engine in [`crate::rectangle`].
//!
//! It mirrors the classic sequential path exactly — same enumeration
//! order, same pruning, same first-found-max tie handling, and the same
//! (fixed) budget semantics: an expansion is denied *before* it starts,
//! `visited` counts completed expansions, and `budget_exhausted` is set
//! only when a denial actually happened. A property suite asserts the
//! two engines agree on best value and stats; see
//! `crates/kcmatrix/tests/props.rs`. `SearchConfig::par_threads` is
//! ignored here — the oracle is always sequential.

use crate::matrix::{ColIdx, KcMatrix, RowIdx};
use crate::rectangle::{
    evaluate_with, row_full_values, stripe_admits, CostModel, Rectangle, SearchConfig, SearchStats,
};
use crate::registry::CubeId;
use pf_sop::fx::FxHashSet;

/// Sequential vec-based twin of [`crate::rectangle::search`] with
/// `par_threads = 0`, `topk = 1` and no seed: the first maximum-value
/// rectangle in enumeration order.
pub fn search(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
) -> (Option<Rectangle>, SearchStats) {
    let row_full_value = row_full_values(m, model);

    let mut best = None;
    if cfg.greedy_seed {
        greedy_sweep(m, model, cfg, &mut best);
    }

    let mut state = Search {
        m,
        model,
        cfg,
        row_full_value: &row_full_value,
        visited: 0,
        truncated: false,
        best,
        cols: Vec::new(),
        scratch: Vec::new(),
        seen: FxHashSet::default(),
    };
    for c0 in 0..m.cols().len() {
        if !stripe_admits(cfg, c0) {
            continue;
        }
        let rows0: Vec<RowIdx> = m.cols()[c0].rows.clone();
        if rows0.is_empty() {
            continue;
        }
        if state.truncated {
            break;
        }
        state.cols.clear();
        state.cols.push(c0);
        state.explore(0, rows0);
    }
    let stats = SearchStats {
        visited: state.visited,
        budget_exhausted: state.truncated,
        // The oracle predates (and does not need) the prune/bound
        // counters; differential tests only compare rectangle, visited
        // and budget_exhausted.
        ..SearchStats::default()
    };
    (state.best, stats)
}

struct Search<'a> {
    m: &'a KcMatrix,
    model: &'a CostModel<'a>,
    cfg: &'a SearchConfig,
    row_full_value: &'a [i64],
    visited: u64,
    truncated: bool,
    best: Option<Rectangle>,
    /// Current column set (shared across the recursion as a stack).
    cols: Vec<ColIdx>,
    /// Per-depth row-intersection buffers, reused between branches.
    scratch: Vec<Vec<RowIdx>>,
    /// Reusable dedup set for exact evaluation.
    seen: FxHashSet<CubeId>,
}

impl Search<'_> {
    fn best_value(&self) -> i64 {
        self.best.as_ref().map_or(0, |b| b.value)
    }

    /// Expands the current column set (`self.cols`) whose supporting
    /// rows are `rows`. `depth` indexes the scratch pool. Returns the
    /// `rows` buffer so the caller can pool it.
    fn explore(&mut self, depth: usize, rows: Vec<RowIdx>) -> Vec<RowIdx> {
        if self.visited >= self.cfg.budget {
            self.truncated = true;
            return rows;
        }
        self.visited += 1;

        if self.cols.len() >= self.cfg.min_cols {
            // Cheap gate first: the duplicate-blind value is an upper
            // bound on the exact value, so the exact (allocating) pass
            // only runs on candidates that could beat the best.
            let col_cost: i64 = self
                .cols
                .iter()
                .map(|&c| (self.model.col_cost)(&self.m.cols()[c].cube))
                .sum();
            let mut approx: i64 = -col_cost;
            for &r in &rows {
                let row = &self.m.rows()[r];
                let mut contrib: i64 = -(self.model.row_cost)(&row.cokernel);
                for &c in &self.cols {
                    let id = row.entry(c).expect("row supports all cols");
                    contrib += (self.model.cube_value)(id) as i64;
                }
                if contrib > 0 {
                    approx += contrib;
                }
            }
            if approx > self.best_value() {
                self.seen.clear();
                if let Some(rect) =
                    evaluate_with(self.m, self.model, &self.cols, &rows, &mut self.seen)
                {
                    if rect.value > self.best_value() {
                        self.best = Some(rect);
                    }
                }
            }
        }

        // Extend with columns to the right of the current rightmost.
        let from = self.cols.last().copied().unwrap_or(0) + 1;
        if self.scratch.len() <= depth {
            self.scratch.resize_with(depth + 1, Vec::new);
        }
        for c in from..self.m.cols().len() {
            // rows ∩ rows(c), into the per-depth scratch buffer.
            let mut shared = std::mem::take(&mut self.scratch[depth]);
            shared.clear();
            intersect_into(&rows, &self.m.cols()[c].rows, &mut shared);
            if shared.is_empty() {
                self.scratch[depth] = shared;
                continue;
            }
            // Admissible bound: every surviving row can contribute at
            // most its full-row value; column costs only grow.
            let ub: i64 = shared.iter().map(|&r| self.row_full_value[r].max(0)).sum();
            if ub <= self.best_value() {
                self.scratch[depth] = shared;
                continue;
            }
            self.cols.push(c);
            let buf = self.explore(depth + 1, shared);
            self.scratch[depth] = buf;
            self.cols.pop();
            if self.truncated {
                return rows;
            }
        }
        rows
    }
}

/// `out = a ∩ b` over sorted slices, reusing `out`'s allocation.
pub(crate) fn intersect_into(a: &[RowIdx], b: &[RowIdx], out: &mut Vec<RowIdx>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Greedy seed, vec flavour — candidate set and tie handling identical
/// to the greedy sweep in [`crate::rectangle`].
fn greedy_sweep(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    best: &mut Option<Rectangle>,
) {
    let mut seen: FxHashSet<CubeId> = FxHashSet::default();
    for row in m.rows().iter().filter(|r| r.alive) {
        if row.entries.len() < cfg.min_cols {
            continue;
        }
        let cols: Vec<ColIdx> = row.entries.iter().map(|&(c, _)| c).collect();
        if !stripe_admits(cfg, cols[0]) {
            continue;
        }
        // Supporting rows: intersection of the column row-lists.
        let mut support = m.cols()[cols[0]].rows.clone();
        for &c in &cols[1..] {
            support = KcMatrix::intersect_rows(&support, &m.cols()[c].rows);
            if support.is_empty() {
                break;
            }
        }
        if support.is_empty() {
            continue;
        }
        seen.clear();
        if let Some(rect) = evaluate_with(m, model, &cols, &support, &mut seen) {
            if rect.value > best.as_ref().map_or(0, |b| b.value) {
                *best = Some(rect);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LabelGen;
    use crate::registry::CubeRegistry;
    use pf_sop::kernel::KernelConfig;
    use pf_sop::{Cube, Lit, Sop};

    fn sop(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_lits(c.iter().map(|&i| Lit::pos(i)))),
        )
    }

    #[test]
    fn oracle_matches_the_engine_on_paper_g() {
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        m.add_node_kernels(
            9,
            &sop(&[&[1, 6], &[2, 6], &[1, 3, 5], &[2, 3, 5]]),
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
        let w = reg.weights_snapshot();
        let value_of = |id: crate::registry::CubeId| w[id as usize];
        let model = CostModel::area(&value_of);
        let cfg = SearchConfig::default();
        let (ours, our_stats) = search(&m, &model, &cfg);
        let (theirs, their_stats) = crate::rectangle::search(&m, &model, &cfg, None, None);
        assert_eq!(ours.into_iter().collect::<Vec<_>>(), theirs);
        assert_eq!(our_stats.visited, their_stats.visited);
        assert_eq!(our_stats.budget_exhausted, their_stats.budget_exhausted);
    }

    #[test]
    fn intersect_into_matches_manual() {
        let mut out = Vec::new();
        intersect_into(&[1, 3, 5, 7], &[3, 4, 7, 9], &mut out);
        assert_eq!(out, vec![3, 7]);
    }
}
