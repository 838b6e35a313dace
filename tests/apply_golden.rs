//! Golden output digests: every driver that rewrites nodes after an
//! extraction must keep producing the byte-identical network on a fixed
//! set of seeded circuits. The digests were recorded from the engine
//! that rebuilt each node through `Sop::from_cubes` and found a node's
//! matrix rows by scanning every row, so they stand in for that engine
//! as the oracle of the incremental apply path.

use parafactor::core::{
    extract_common_cubes, extract_kernels, lshaped_extract, lshaped_extract_cubes,
    replicated_extract, CubeExtractConfig, ExtractConfig, LShapedConfig, LShapedCxConfig,
    ReplicatedConfig,
};
use parafactor::kcmatrix::network_digest;
use parafactor::network::Network;
use parafactor::workloads::{generate, profile_by_name, scale_profile, CircuitProfile};

/// `(profile, scale, generator seed)` of every pinned circuit.
const CIRCUITS: [(&str, f64, u64); 8] = [
    ("dalu", 1.0, 1),
    ("dalu", 1.0, 2),
    ("dalu", 1.0, 3),
    ("ex1010", 0.1, 1),
    ("ex1010", 0.1, 2),
    ("ex1010", 0.1, 3),
    ("misex3", 0.1, 1),
    ("misex3", 0.1, 2),
];

fn circuit(profile: &str, scale: f64, seed: u64) -> Network {
    let base = profile_by_name(profile).expect("paper profile");
    generate(&CircuitProfile {
        seed,
        ..scale_profile(&base, scale)
    })
}

/// Runs `driver` on a copy of every pinned circuit and returns the
/// output digests, in `CIRCUITS` order.
fn digests(driver: impl Fn(&mut Network)) -> Vec<String> {
    CIRCUITS
        .iter()
        .map(|&(profile, scale, seed)| {
            let mut nw = circuit(profile, scale, seed);
            driver(&mut nw);
            network_digest(&nw).to_hex()
        })
        .collect()
}

fn check(name: &str, got: Vec<String>, want: [&str; 8]) {
    let mismatches: Vec<String> = CIRCUITS
        .iter()
        .zip(got.iter().zip(want))
        .filter(|(_, (g, w))| g != w)
        .map(|((p, s, seed), (g, w))| format!("{p}@{s} seed {seed}: got {g}, want {w}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{name} output changed:\n{}",
        mismatches.join("\n")
    );
}

fn seq_config(tile_width: usize, topk: usize, par_threads: usize) -> ExtractConfig {
    let mut cfg = ExtractConfig::default();
    cfg.search.tile_width = tile_width;
    cfg.search.topk = topk;
    cfg.search.par_threads = par_threads;
    cfg
}

#[test]
fn seq_default_config() {
    let cfg = seq_config(0, 1, 0);
    let got = digests(|nw| {
        extract_kernels(nw, &[], &cfg);
    });
    check(
        "seq (default)",
        got,
        [
            "dcedd6917694351ada33b46a7e262471",
            "4a3b1e7e04438aef50a93371be6f2c80",
            "dccd3e622fe05f357eff6d472138b3d8",
            "5162553afddb4cfea7b85c60343eeccb",
            "866c2a0c8f8901b4724114a98d46f229",
            "26c2374e3cd0bd7b1d189f0afe957cb2",
            "0b057362b0f2a96c5a95d1032124c2fa",
            "8cfce873187e9e5f9eae8753d20c54d7",
        ],
    );
}

#[test]
fn seq_tiled_top16() {
    let cfg = seq_config(4, 16, 0);
    let got = digests(|nw| {
        extract_kernels(nw, &[], &cfg);
    });
    check(
        "seq (tile_width 4, topk 16)",
        got,
        [
            "d91c354490538e51931c85d2afec2ff3",
            "4a3b1e7e04438aef50a93371be6f2c80",
            "dccd3e622fe05f357eff6d472138b3d8",
            "f8a3a2165d7d2d3f89c94601cebe3333",
            "d85cd9f7614fa67ed343a1211a33426c",
            "6a2d816e48f84731553f8216fd8d00eb",
            "cb9fe0ddde6f38ec96bd1d5017ec6e13",
            "bb335c576963f96282ab8e7b3b887057",
        ],
    );
}

#[test]
fn seq_two_pool_threads() {
    let cfg = seq_config(0, 1, 2);
    let got = digests(|nw| {
        extract_kernels(nw, &[], &cfg);
    });
    check(
        "seq (par_threads 2)",
        got,
        [
            "d91c354490538e51931c85d2afec2ff3",
            "4a3b1e7e04438aef50a93371be6f2c80",
            "dccd3e622fe05f357eff6d472138b3d8",
            "f8a3a2165d7d2d3f89c94601cebe3333",
            "384c2828a8c90dced3f8b925b2f9b6c9",
            "9ab3bcc8034d0761b87881bc0e1cd962",
            "e06179610430130919a73c6592a11077",
            "fd2b859b53cbfa3dbaad403b95971673",
        ],
    );
}

#[test]
fn algorithm_r() {
    let cfg = ReplicatedConfig {
        procs: 2,
        ..ReplicatedConfig::default()
    };
    let got = digests(|nw| {
        replicated_extract(nw, &cfg);
    });
    check(
        "replicated",
        got,
        [
            "fcfd1e7b90acd017100c7a8072d258ba",
            "99ae31f30d9de7a8e91318649d3e9443",
            "cfbc086f813de4c433278dbb23604a74",
            "45471d90b9b1912e7e87eddddfca58c6",
            "167450051aa4c987bd003ec621f97f97",
            "f82d8ff87fe8d96280a49b55c69633c3",
            "4189e2806d6e01476041e0380e397ba7",
            "e5bf64e10fad9136449da721049e8a19",
        ],
    );
}

#[test]
fn algorithm_l() {
    let cfg = LShapedConfig {
        procs: 2,
        sequential: true,
        ..LShapedConfig::default()
    };
    let got = digests(|nw| {
        lshaped_extract(nw, &cfg);
    });
    check(
        "lshaped",
        got,
        [
            "a2b2c19cb11470e58972fedb4bdeea88",
            "fa1b9cd59926e4d37e12343d74ad77da",
            "abbd4543e9124f8508c6cc6b1702a0cf",
            "2c01aebf333a019e123a4b86c02b4d21",
            "f6f5f8fc41124fa4e92d0312eefe4ce3",
            "86cc56b8754acf3ff3882fdd174056a9",
            "be6b936f73b2468eae1ca95c29c4afeb",
            "aeeb884ea0764c61b1a661865af208d3",
        ],
    );
}

#[test]
fn lshaped_cube_extraction() {
    let cfg = LShapedCxConfig {
        procs: 2,
        sequential: true,
        ..LShapedCxConfig::default()
    };
    let got = digests(|nw| {
        lshaped_extract_cubes(nw, &cfg);
    });
    check(
        "lshaped-cx",
        got,
        [
            "9dd1097df4616f1be2b016d40ad9789d",
            "c9d7ffa8c4af1fae15ebd8dc84480c55",
            "da802b75d3887f2410f9ab199b23e571",
            "8868faaeafae716ff9856bc1b7491a70",
            "8ef8d2f256184306962ea67705dd7e3a",
            "832d42b306c4502f455c5da8e2dcee05",
            "fdca6a573547ecdb4ab484dbaeed2095",
            "84e5e762724fdb581fc6ca33ad1a4198",
        ],
    );
}

#[test]
fn cube_extraction() {
    let got = digests(|nw| {
        extract_common_cubes(nw, &[], &CubeExtractConfig::default());
    });
    check(
        "cx",
        got,
        [
            "f2f7bacb9d89e1304c01f446cd985664",
            "a7df352d993014b373b43d20c3eb0892",
            "d1d428c265666c26e368d6e96f828e63",
            "a8b1f4c9764a57447633ccd93b00b50a",
            "b207f419fe9867e8ebacb9f8119f8080",
            "06c0914ccc533ae366e0f77cdea78ad3",
            "d60d8e36d2e6d44aa69d201a9e5fd56e",
            "8c306b4a68e5dc9d09912dcd9e80f0ba",
        ],
    );
}
