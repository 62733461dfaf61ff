//! Determinism and cache-correctness properties of the preparation
//! pipeline: parallel ≡ serial for any worker count, warm disk cache ≡
//! cold run bit for bit, any input-knob change invalidates the cache, the
//! fixed-vector planning path shares the pipeline's first two stages, and
//! a core without input or output ports is a typed error on every path.

use proptest::prelude::*;
use socet::atpg::TpgConfig;
use socet::cells::{DftCosts, Enc};
use socet::core::{plan_inputs, CoreTestData};
use socet::flow::{prepare_soc_uncached, prepare_soc_with, PrepareOptions, PreparedSoc};
use socet::hscan::encode_hscan;
use socet::rtl::{Core, CoreBuilder, Direction, Soc, SocBuilder};
use socet::socs::{generate_soc, SyntheticConfig};
use socet::transparency::{encode_versions, SearchError};
use std::path::PathBuf;
use std::sync::Arc;

fn light_tpg() -> TpgConfig {
    TpgConfig {
        random_patterns: 16,
        max_backtracks: 32,
        ..TpgConfig::default()
    }
}

/// A fresh per-test cache directory under cargo's target tmpdir.
fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("prepare-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Byte encodings of every instance's artifact (`None` for memories).
fn all_bytes(p: &PreparedSoc, soc: &Soc) -> Vec<Option<Vec<u8>>> {
    (0..soc.cores().len())
        .map(|i| p.artifact_bytes(i))
        .collect()
}

#[test]
fn parallel_output_is_bit_identical_to_serial() {
    let soc = socet::socs::system2();
    let costs = DftCosts::default();
    let tpg = light_tpg();
    let oracle = prepare_soc_uncached(&soc, &costs, &tpg).unwrap();
    let want = all_bytes(&oracle, &soc);
    for workers in [1, 2, 4, 8] {
        let opts = PrepareOptions::new().workers(workers);
        let (got, m) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
        assert_eq!(
            all_bytes(&got, &soc),
            want,
            "workers={workers} diverged from the serial oracle"
        );
        assert!(m.workers as usize <= workers);
    }
}

#[test]
fn warm_disk_cache_is_bit_identical_to_cold() {
    let soc = socet::socs::system2();
    let costs = DftCosts::default();
    let tpg = light_tpg();
    let opts = PrepareOptions::new()
        .workers(1)
        .cache_dir(fresh_cache_dir("warm"));
    let (cold, mc) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
    assert_eq!(mc.disk_hits, 0);
    assert_eq!(mc.disk_writes, mc.unique_cores);
    let (warm, mw) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
    assert_eq!(
        mw.disk_hits, mw.unique_cores,
        "warm run must hit for every core"
    );
    assert_eq!(mw.disk_misses, 0);
    assert_eq!(all_bytes(&warm, &soc), all_bytes(&cold, &soc));
}

#[test]
fn tpg_change_invalidates_the_cache() {
    let soc = socet::socs::system2();
    let costs = DftCosts::default();
    let opts = PrepareOptions::new()
        .workers(1)
        .cache_dir(fresh_cache_dir("tpg-invalidate"));
    let tpg = light_tpg();
    let (_, first) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
    assert_eq!(first.disk_writes, first.unique_cores);
    let changed = TpgConfig {
        random_patterns: tpg.random_patterns + 1,
        ..tpg
    };
    let (_, second) = prepare_soc_with(&soc, &costs, &changed, &opts).unwrap();
    assert_eq!(second.disk_hits, 0, "stale entries must not be served");
    assert_eq!(second.disk_misses, second.unique_cores);
    // The original configuration still hits its own entries.
    let (_, third) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
    assert_eq!(third.disk_hits, third.unique_cores);
}

#[test]
fn dft_cost_change_invalidates_the_cache() {
    let soc = socet::socs::system2();
    let tpg = light_tpg();
    let opts = PrepareOptions::new()
        .workers(1)
        .cache_dir(fresh_cache_dir("costs-invalidate"));
    let costs = DftCosts::default();
    let (_, first) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
    assert_eq!(first.disk_writes, first.unique_cores);
    let changed = DftCosts {
        hscan_test_mux_per_bit: costs.hscan_test_mux_per_bit + 1,
        ..costs
    };
    let (_, second) = prepare_soc_with(&soc, &changed, &tpg, &opts).unwrap();
    assert_eq!(second.disk_hits, 0, "stale entries must not be served");
    assert_eq!(second.disk_misses, second.unique_cores);
}

/// The planning-relevant bytes of one core's data: HSCAN result and
/// version ladder (the vector count differs between the two paths by
/// design).
fn plan_bytes(d: &CoreTestData) -> Vec<u8> {
    let mut e = Enc::new();
    encode_hscan(&d.hscan, &mut e);
    encode_versions(&d.versions, &mut e);
    e.into_bytes()
}

#[test]
fn planning_inputs_match_the_pipeline() {
    let costs = DftCosts::default();
    let synthetic = generate_soc(&SyntheticConfig {
        cores: 6,
        ..SyntheticConfig::default()
    });
    for soc in [
        socet::socs::barcode_system(),
        socet::socs::system2(),
        synthetic,
    ] {
        let planned = plan_inputs(&soc, &costs, 105).unwrap();
        let (prepared, _) =
            prepare_soc_with(&soc, &costs, &light_tpg(), &PrepareOptions::new()).unwrap();
        assert_eq!(planned.len(), prepared.data.len());
        for (i, (p, q)) in planned.iter().zip(&prepared.data).enumerate() {
            match (p, q) {
                (Some(p), Some(q)) => {
                    assert_eq!(p.scan_vectors, 105);
                    assert_eq!(
                        plan_bytes(p),
                        plan_bytes(q),
                        "{} instance {i} diverged",
                        soc.name()
                    );
                }
                (None, None) => {}
                _ => panic!("{} instance {i}: memory/logic mismatch", soc.name()),
            }
        }
    }
}

/// A core with only input ports (a register loaded from `i`) or only
/// output ports (a register driving `o`) — valid for `CoreBuilder`, but
/// HSCAN has nowhere to scan out of (or into) it.
fn one_sided_core(name: &str, dir: Direction) -> Arc<Core> {
    let mut b = CoreBuilder::new(name);
    let p = b.port("p", dir, 4).unwrap();
    let r = b.register("r", 4).unwrap();
    match dir {
        Direction::In => b.connect_port_to_reg(p, r).unwrap(),
        Direction::Out => b.connect_reg_to_port(r, p).unwrap(),
    };
    Arc::new(b.build().unwrap())
}

/// A GCD core followed by `bad` (instance `bad_1`), each port of `bad`
/// wired to its own chip pin.
fn soc_with(bad: Arc<Core>) -> Soc {
    let gcd = Arc::new(socet::socs::gcd_core());
    let mut b = SocBuilder::new("one-sided");
    let x = b.input_pin("X", 12).unwrap();
    let g = b.instantiate("gcd_0", Arc::clone(&gcd)).unwrap();
    b.connect_pin_to_core(x, g, gcd.find_port("X").unwrap())
        .unwrap();
    let u = b.instantiate("bad_1", Arc::clone(&bad)).unwrap();
    let p = bad.find_port("p").unwrap();
    if bad.port(p).direction() == Direction::In {
        let pin = b.input_pin("P", 4).unwrap();
        b.connect_pin_to_core(pin, u, p).unwrap();
    } else {
        let pin = b.output_pin("P", 4).unwrap();
        b.connect_core_to_pin(u, p, pin).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn cores_without_inputs_or_outputs_are_typed_errors() {
    let costs = DftCosts::default();
    let tpg = light_tpg();
    for (dir, want) in [
        (
            Direction::In,
            SearchError::NoOutputPorts {
                core: "sink".to_owned(),
            },
        ),
        (
            Direction::Out,
            SearchError::NoInputPorts {
                core: "source".to_owned(),
            },
        ),
    ] {
        let name = if dir == Direction::In {
            "sink"
        } else {
            "source"
        };
        let soc = soc_with(one_sided_core(name, dir));
        let check = |e: socet::flow::PrepareError, path: &str| {
            assert_eq!(e.core.index(), 1, "{path}");
            assert_eq!(e.name, "bad_1", "{path}");
            assert!(e.to_string().contains("bad_1"), "{path}: {e}");
            assert_eq!(
                e.source,
                socet::flow::PrepareCause::Synthesis(want.clone()),
                "{path}"
            );
        };
        for workers in [1, 3] {
            let opts = PrepareOptions::new().workers(workers);
            check(
                prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap_err(),
                &format!("workers({workers})"),
            );
        }
        check(
            prepare_soc_uncached(&soc, &costs, &tpg).unwrap_err(),
            "uncached",
        );
        assert_eq!(plan_inputs(&soc, &costs, 105).unwrap_err(), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any worker count and any ATPG seed: the pipeline output equals the
    /// serial oracle's, byte for byte.
    #[test]
    fn pipeline_matches_oracle_for_any_worker_count(
        workers in 1usize..9,
        seed in 0u64..4,
    ) {
        let soc = socet::socs::system2();
        let costs = DftCosts::default();
        let tpg = TpgConfig { seed, ..light_tpg() };
        let oracle = prepare_soc_uncached(&soc, &costs, &tpg).unwrap();
        let opts = PrepareOptions::new().workers(workers);
        let (got, _) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
        prop_assert_eq!(all_bytes(&got, &soc), all_bytes(&oracle, &soc));
    }
}
