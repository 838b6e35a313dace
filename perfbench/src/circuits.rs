//! Seeded circuit sets. A workload draws every input from one shape
//! family, so its timing percentiles describe one population instead of
//! straddling the cliff between families.

use pf_kcmatrix::{network_digest, DigestBuilder};
use pf_network::Network;
use pf_workloads::{generate, profile_by_name, scale_profile, CircuitProfile};

/// One shape family: a paper profile and a range of scale factors.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    /// Paper profile name (`ex1010`, `dalu`, …).
    pub profile: &'static str,
    /// Smallest scale factor drawn.
    pub scale_lo: f64,
    /// Largest scale factor drawn.
    pub scale_hi: f64,
}

/// SplitMix64: a small, fully specified generator, so the inputs a seed
/// names never depend on another crate's RNG.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `n` scale factors, one per stratum of `[lo, hi)`, jittered inside the
/// stratum by the seed. Stratifying keeps the size mix of every seed's
/// set the same, so seeds differ in circuit structure, not in how many
/// large circuits they happen to draw.
pub fn stratified_scales(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0x5ca1_e5ca_1e00_0001);
    let mut scales: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * (i as f64 + rng.unit()) / n as f64)
        .collect();
    // Shuffle so a partial pass over the set is not biased to small sizes.
    for i in (1..scales.len()).rev() {
        scales.swap(i, rng.below(i + 1));
    }
    scales
}

/// The generator profile of circuit `i` of a seeded set.
pub fn profile_for(family: &Family, seed: u64, i: usize, scale: f64) -> CircuitProfile {
    let base = profile_by_name(family.profile).expect("family names a paper profile");
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i as u64);
    CircuitProfile {
        seed: rng.next_u64(),
        ..scale_profile(&base, scale)
    }
}

/// Generates the `n` circuits of `family` that `seed` names.
pub fn generate_set(family: &Family, seed: u64, n: usize) -> Vec<Network> {
    stratified_scales(seed, n, family.scale_lo, family.scale_hi)
        .into_iter()
        .enumerate()
        .map(|(i, s)| generate(&profile_for(family, seed, i, s)))
        .collect()
}

/// One digest over the content of every circuit, in order: equal digests
/// mean two runs (or two commits) factored the same inputs.
pub fn set_digest(circuits: &[Network]) -> String {
    let mut h = DigestBuilder::new();
    for nw in circuits {
        let d = network_digest(nw);
        h.write_u64(d.0);
        h.write_u64(d.1);
    }
    h.finish().to_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Family = Family {
        profile: "dalu",
        scale_lo: 0.04,
        scale_hi: 0.06,
    };

    #[test]
    fn a_seed_names_the_same_circuits_every_time() {
        let a = generate_set(&TINY, 7, 4);
        let b = generate_set(&TINY, 7, 4);
        assert_eq!(set_digest(&a), set_digest(&b));
        let c = generate_set(&TINY, 8, 4);
        assert_ne!(set_digest(&a), set_digest(&c));
    }

    #[test]
    fn scales_cover_every_stratum_once() {
        let mut s = stratified_scales(3, 10, 1.0, 2.0);
        s.sort_by(f64::total_cmp);
        for (i, x) in s.iter().enumerate() {
            let lo = 1.0 + i as f64 / 10.0;
            assert!((lo..lo + 0.1).contains(x), "stratum {i}: {x}");
        }
        assert_eq!(
            stratified_scales(3, 10, 1.0, 2.0),
            stratified_scales(3, 10, 1.0, 2.0)
        );
    }
}
