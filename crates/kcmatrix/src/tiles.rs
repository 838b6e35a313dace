//! Column-major tiled mirror of the KC matrix: the support
//! representation of the rectangle search.
//!
//! The branch-and-bound inner loop does one thing millions of times:
//! intersect the current support with a candidate column's row-set and
//! sum the admissible per-row bound over the survivors. This module lays
//! the data out for that loop:
//!
//! * **Panels.** Each column's row bitset is mirrored into a
//!   `TilePanels` buffer, column-major (`data[c * stride + w]`), with
//!   `stride` padded up to a multiple of [`TILE_WIDTH`] so every column
//!   is a whole number of fixed-width u64 tiles. One candidate probe
//!   streams one contiguous column — no per-row gathers.
//! * **Live-tile lists.** A support ([`TiledSupport`]) carries the
//!   ascending list of its non-zero tiles next to its words. An
//!   intersection only visits the *parent's* live tiles (a child
//!   support is always a subset), so sparse supports skip almost the
//!   whole universe.
//! * **Fused AND + bound.** [`TiledSupport::and_ub_from`] computes the
//!   child support and its admissible bound in a single pass: one
//!   fixed-width word group per tile, an OR reduction for the dead-tile
//!   early exit, and a bit walk only over surviving words.
//!
//! Words outside a support's live tiles are **stale** — never read,
//! never zeroed. Iteration and intersection are driven exclusively by
//! the live list, which is what makes child derivation O(live tiles)
//! instead of O(universe).
//!
//! # Sync invariants
//!
//! A panel is a *mirror*: it must stay byte-equal to the matrix's
//! per-column row lists. The holders keep it in sync as follows:
//!
//! 1. The sequential engine builds a fresh panel per search call
//!    ([`TilePanels::build`]) — trivially in sync.
//! 2. The resident [`crate::pool::SearchPool`] keeps one panel across
//!    passes and drives [`TilePanels::sync`] from the same
//!    [`crate::pool::CeilingUpdate`] bookkeeping as the ceilings: the
//!    caller's dirty-column list must cover every column that gained or
//!    lost a row (tombstoned rows' entry columns and appended rows'
//!    columns — exactly the `Engine::apply` contract). Appended columns
//!    are encoded fresh; a row-universe change that no longer fits the
//!    padded stride triggers a full rebuild.
//! 3. Enumeration order does not depend on the layout and the fused
//!    bound is an order-independent integer sum, so the results match
//!    the sorted-vec [`crate::reference`] oracle exactly.

use crate::matrix::{ColIdx, KcCol, RowIdx};

/// Words per tile. Width 4 (256 rows) was the fastest of 2/4/8 at both
/// measured dalu scales (see `BENCH_rect.json` history in
/// EXPERIMENTS.md); a fixed width lets the compiler unroll the tile
/// loops completely.
pub const TILE_WIDTH: usize = 4;

/// Column-major mirror of the per-column row bitsets, padded to whole
/// tiles of [`TILE_WIDTH`] u64 words.
#[derive(Clone, Debug, Default)]
pub struct TilePanels {
    /// Words per column; a multiple of [`TILE_WIDTH`], covering the row
    /// universe with zero padding above it.
    stride: usize,
    /// Rows the panel was encoded for (`ceil(nrows / 64)` words used).
    nrows: usize,
    /// Columns encoded.
    ncols: usize,
    /// `ncols * stride` words, column-major.
    data: Vec<u64>,
}

impl TilePanels {
    /// Builds a fresh panel mirror of `cols`' row lists over a universe
    /// of `nrows` rows (`m.rows().len()`, `m.cols()` for a matrix `m`).
    pub fn build(nrows: usize, cols: &[KcCol]) -> Self {
        let stride = nrows.div_ceil(64).div_ceil(TILE_WIDTH).max(1) * TILE_WIDTH;
        let mut p = TilePanels {
            stride,
            nrows,
            ncols: cols.len(),
            data: vec![0; cols.len() * stride],
        };
        for (c, col) in cols.iter().enumerate() {
            p.encode_col(c, &col.rows);
        }
        p
    }

    /// Re-syncs an existing panel to the current matrix: appended
    /// columns are encoded fresh, `dirty` columns re-encoded in place,
    /// everything else kept. Falls back to a full rebuild (returning
    /// `true`) when the row universe no longer fits the padded stride.
    pub fn sync(&mut self, nrows: usize, cols: &[KcCol], dirty: &[ColIdx]) -> bool {
        if nrows.div_ceil(64) > self.stride || nrows < self.nrows || cols.len() < self.ncols {
            *self = TilePanels::build(nrows, cols);
            return true;
        }
        self.nrows = nrows;
        let old_ncols = self.ncols;
        self.ncols = cols.len();
        self.data.resize(self.ncols * self.stride, 0);
        for (c, col) in cols.iter().enumerate().skip(old_ncols) {
            self.encode_col(c, &col.rows);
        }
        for &c in dirty {
            if c < old_ncols {
                self.encode_col(c, &cols[c].rows);
            }
        }
        false
    }

    /// Zeroes and re-encodes one column from its ascending row list.
    fn encode_col(&mut self, c: ColIdx, rows: &[RowIdx]) {
        let base = c * self.stride;
        let col = &mut self.data[base..base + self.stride];
        col.fill(0);
        for &r in rows {
            col[r / 64] |= 1u64 << (r % 64);
        }
    }

    /// Columns encoded.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// One column's padded word slice.
    #[inline]
    fn col(&self, c: ColIdx) -> &[u64] {
        &self.data[c * self.stride..(c + 1) * self.stride]
    }

    /// The column's row bitset as a plain [`crate::rowset::RowSet`]
    /// -equivalent word vector (unpadded) — for consistency checks in
    /// tests.
    pub fn col_words(&self, c: ColIdx) -> Vec<u64> {
        self.col(c)[..self.nrows.div_ceil(64)].to_vec()
    }
}

/// A support row-set in tiled form: padded words plus the ascending
/// list of non-zero tile indices. Words outside the live tiles are
/// stale and must never be read.
#[derive(Clone, Debug, Default)]
pub struct TiledSupport {
    words: Vec<u64>,
    live: Vec<u32>,
}

/// Adds `Σ max(row_full_value[r], 0)` over the set bits of `tile`,
/// whose first word holds rows from `row_base` up.
#[inline]
fn tile_bound(tile: &[u64], row_base: usize, row_full_value: &[i64]) -> i64 {
    let mut ub = 0i64;
    for (j, &word) in tile.iter().enumerate() {
        let mut word = word;
        let base = row_base + j * 64;
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            ub += row_full_value[base + bit].max(0);
        }
    }
    ub
}

impl TiledSupport {
    /// Sizes the word buffer for the panel's stride, reusing the
    /// allocation, and empties the live list.
    fn reset(&mut self, p: &TilePanels) {
        if self.words.len() != p.stride {
            self.words.clear();
            self.words.resize(p.stride, 0);
        }
        self.live.clear();
    }

    /// `self = column c` of the panel — the root support of a
    /// leftmost-column task.
    pub fn load_col(&mut self, p: &TilePanels, c: ColIdx) {
        self.reset(p);
        let col = p.col(c);
        for (t, tile) in col.chunks_exact(TILE_WIDTH).enumerate() {
            if tile.iter().any(|&x| x != 0) {
                let base = t * TILE_WIDTH;
                self.words[base..base + TILE_WIDTH].copy_from_slice(tile);
                self.live.push(t as u32);
            }
        }
    }

    /// Fused intersect-and-bound: `self = parent ∩ column c`, visiting
    /// only the parent's live tiles, returning the admissible bound
    /// `Σ max(row_full_value[r], 0)` over the result. A tile is one
    /// fixed-width word group with an OR reduction, so a dead tile
    /// exits before any bit walking.
    pub fn and_ub_from(
        &mut self,
        parent: &TiledSupport,
        p: &TilePanels,
        c: ColIdx,
        row_full_value: &[i64],
    ) -> i64 {
        self.reset(p);
        let col = p.col(c);
        let mut ub = 0i64;
        for &t in &parent.live {
            let base = t as usize * TILE_WIDTH;
            let a = &parent.words[base..base + TILE_WIDTH];
            let b = &col[base..base + TILE_WIDTH];
            let out = &mut self.words[base..base + TILE_WIDTH];
            let mut any = 0u64;
            for i in 0..TILE_WIDTH {
                let x = a[i] & b[i];
                out[i] = x;
                any |= x;
            }
            if any == 0 {
                continue; // dead tile: no survivors, no bit walk
            }
            self.live.push(t);
            ub += tile_bound(out, base * 64, row_full_value);
        }
        ub
    }

    /// Admissible bound of this support alone: `Σ max(row_full_value[r],
    /// 0)` over the member rows — what [`TiledSupport::and_ub_from`]
    /// returns for a derived child, for supports loaded directly from a
    /// column.
    pub fn bound(&self, row_full_value: &[i64]) -> i64 {
        self.live
            .iter()
            .map(|&t| {
                let base = t as usize * TILE_WIDTH;
                tile_bound(
                    &self.words[base..base + TILE_WIDTH],
                    base * 64,
                    row_full_value,
                )
            })
            .sum()
    }

    /// Whether the support holds no rows.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Number of rows (popcount over live tiles).
    pub fn len(&self) -> usize {
        self.live
            .iter()
            .flat_map(|&t| {
                let base = t as usize * TILE_WIDTH;
                self.words[base..base + TILE_WIDTH].iter()
            })
            .map(|x| x.count_ones() as usize)
            .sum()
    }

    /// Iterates the member rows in ascending order (the live list is
    /// ascending, words within a tile ascending, bits within a word
    /// ascending).
    pub fn iter(&self) -> TiledBits<'_> {
        TiledBits {
            s: self,
            live_idx: 0,
            word_off: 0,
            current: 0,
        }
    }

    /// Appends the member rows (ascending) to `out` without clearing.
    pub fn collect_into(&self, out: &mut Vec<usize>) {
        out.extend(self.iter());
    }
}

impl<'a> IntoIterator for &'a TiledSupport {
    type Item = usize;
    type IntoIter = TiledBits<'a>;
    fn into_iter(self) -> TiledBits<'a> {
        self.iter()
    }
}

/// Ascending iterator over a [`TiledSupport`]'s rows, driven by the
/// live-tile list (stale words are never visited).
pub struct TiledBits<'a> {
    s: &'a TiledSupport,
    /// Index into the live list.
    live_idx: usize,
    /// Word offset inside the current live tile (`0..TILE_WIDTH` once
    /// the tile is entered; `TILE_WIDTH` forces advancing to the next
    /// tile).
    word_off: usize,
    current: u64,
}

impl Iterator for TiledBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let t = self.s.live[self.live_idx - 1] as usize;
                let word = t * TILE_WIDTH + (self.word_off - 1);
                return Some(word * 64 + bit);
            }
            // Advance to the next word of the current tile, or enter
            // the next live tile.
            if self.live_idx == 0 || self.word_off >= TILE_WIDTH {
                if self.live_idx >= self.s.live.len() {
                    return None;
                }
                self.live_idx += 1;
                self.word_off = 0;
            }
            let t = self.s.live[self.live_idx - 1] as usize;
            self.current = self.s.words[t * TILE_WIDTH + self.word_off];
            self.word_off += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowset::RowSet;

    /// Columns with the given row lists (cubes and labels are irrelevant
    /// to the panel).
    fn cols(lists: &[&[usize]]) -> Vec<KcCol> {
        lists
            .iter()
            .map(|rows| KcCol {
                label: 0,
                cube: pf_sop::Cube::from_lits([]),
                rows: rows.to_vec(),
            })
            .collect()
    }

    fn words(universe: usize, rows: &[usize]) -> Vec<u64> {
        RowSet::from_indices(rows.iter().copied(), universe)
            .as_words()
            .to_vec()
    }

    #[test]
    fn build_mirrors_columns() {
        let lists: [&[usize]; 4] = [&[0, 63, 64, 130, 199], &[], &[5, 6, 7], &[199]];
        let p = TilePanels::build(200, &cols(&lists));
        assert_eq!(p.ncols(), 4);
        for (c, rows) in lists.iter().enumerate() {
            assert_eq!(p.col_words(c), words(200, rows), "col={c}");
        }
    }

    #[test]
    fn load_col_and_iter_match_rows() {
        let lists: [&[usize]; 2] = [&[1, 64, 65, 128, 256, 299, 1100], &[70, 71]];
        let p = TilePanels::build(1200, &cols(&lists));
        let mut s = TiledSupport::default();
        for (c, rows) in lists.iter().enumerate() {
            s.load_col(&p, c);
            assert_eq!(s.iter().collect::<Vec<_>>(), rows.to_vec(), "col={c}");
            assert_eq!(s.len(), rows.len());
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn and_ub_matches_sorted_intersection() {
        let a: &[usize] = &[1, 3, 64, 130, 131, 250, 600];
        let b: &[usize] = &[3, 64, 131, 200, 251, 600];
        let p = TilePanels::build(700, &cols(&[a, b]));
        let rfv: Vec<i64> = (0..700).map(|r| (r as i64 % 7) - 3).collect();
        let mut root = TiledSupport::default();
        root.load_col(&p, 0);
        assert_eq!(
            root.bound(&rfv),
            a.iter().map(|&r| rfv[r].max(0)).sum::<i64>()
        );
        let mut child = TiledSupport::default();
        let ub = child.and_ub_from(&root, &p, 1, &rfv);
        let expect: Vec<usize> = vec![3, 64, 131, 600];
        assert_eq!(child.iter().collect::<Vec<_>>(), expect);
        let expect_ub: i64 = expect.iter().map(|&r| rfv[r].max(0)).sum();
        assert_eq!(ub, expect_ub);
    }

    #[test]
    fn empty_intersection_is_empty_and_zero() {
        let p = TilePanels::build(128, &cols(&[&[0, 1, 2], &[100, 101]]));
        let rfv = vec![1i64; 128];
        let mut root = TiledSupport::default();
        root.load_col(&p, 0);
        let mut child = TiledSupport::default();
        let ub = child.and_ub_from(&root, &p, 1, &rfv);
        assert_eq!(ub, 0);
        assert!(child.is_empty());
        assert_eq!(child.iter().count(), 0);
    }

    #[test]
    fn stale_words_are_never_read() {
        // Derive a child, then reuse the same buffer against a column
        // whose live tiles differ: survivors of the old intersection
        // must not leak through.
        let p = TilePanels::build(512, &cols(&[&[0, 400], &[0], &[400]]));
        let rfv = vec![1i64; 512];
        let mut root = TiledSupport::default();
        root.load_col(&p, 0);
        let mut child = TiledSupport::default();
        child.and_ub_from(&root, &p, 1, &rfv); // {0}
        assert_eq!(child.iter().collect::<Vec<_>>(), vec![0]);
        child.and_ub_from(&root, &p, 2, &rfv); // {400}; tile of row 0 now stale
        assert_eq!(child.iter().collect::<Vec<_>>(), vec![400]);
    }

    #[test]
    fn sync_reencodes_dirty_and_appends_columns() {
        let mut lists: Vec<&[usize]> = vec![&[1, 2], &[50]];
        let mut p = TilePanels::build(100, &cols(&lists));
        // Column 0 loses a row, a new column arrives.
        lists[0] = &[2];
        lists.push(&[99]);
        let rebuilt = p.sync(100, &cols(&lists), &[0]);
        assert!(!rebuilt, "in-place sync expected");
        for (c, rows) in lists.iter().enumerate() {
            assert_eq!(p.col_words(c), words(100, rows), "col={c}");
        }
    }

    #[test]
    fn sync_rebuilds_on_universe_overflow() {
        let mut p = TilePanels::build(64, &cols(&[&[0]]));
        // Universe grows past the padded stride: full rebuild.
        let big = 64 * TILE_WIDTH * 64 + 1;
        let grown: &[usize] = &[0, big - 1];
        assert!(p.sync(big, &cols(&[grown]), &[]));
        assert_eq!(p.col_words(0), words(big, grown));
    }
}
