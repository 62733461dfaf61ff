//! Exact values the flow must keep producing, checked on the flow's own
//! outputs: the transparency ladders and HSCAN figures that
//! `tests/paper_fidelity.rs` pins, the Table 3 coverages recorded in
//! `EXPERIMENTS.md`, and the model outputs of each workload (vectors,
//! fault counts, objective points, replay figures) as this flow produces
//! them. The checks compare against these constants, not against a
//! reference the same build computes, so a change that alters an output
//! fails the run.

use socet::cells::CellLibrary;
use socet::core::CoreTestData;
use socet::rtl::{Core, Soc};
use socet::socs::{cpu_core, display_core, preprocessor_core};
use socet::transparency::CoreVersion;

/// Table 3 "Orig." and "HSCAN-only" fault coverage at the table's seed
/// and 96 random cycles, one decimal: System 1, then System 2.
pub const TABLE3_ORIG_FC: [&str; 2] = ["2.6", "10.5"];

/// Table 3 full-scan (SOCET / FSCAN-BSCAN) fault coverage under the
/// default `TpgConfig`, one decimal: System 1, then System 2.
pub const TABLE3_SCAN_FC: [&str; 2] = ["98.8", "98.3"];

/// The seed `table3_testability` uses for its random sequences, and the
/// benchmark's default seed.
pub const TABLE3_SEED: u64 = 0xdac1998;

/// `prepare-paper`, per chip (System 1, System 2) under the default
/// `TpgConfig`: ATPG vectors, faults detected, faults targeted. The
/// preparation does not depend on the seed.
pub const PREPARE_OUTPUTS: [[u64; 3]; 2] = [[74, 3757, 3804], [76, 2714, 2762]];

/// `explore-synth` at the default seed (8 synthetic cores): design
/// points swept, then TAT cycles and overhead cells of objective (i)'s
/// point, then of objective (ii)'s.
pub const EXPLORE_OUTPUTS: [u64; 5] = [6561, 402, 70, 402, 70];

/// `verify-paper` at the default seed, per chip: replay checks, bits
/// checked, bits untracked, hold gaps.
pub const VERIFY_OUTPUTS: [[u64; 4]; 2] = [[25620, 65205, 10185, 2100], [104, 376, 0, 0]];

/// `testability-paper` at the default seed, per chip: flattened gates,
/// faults detected by Orig., by HSCAN-only and by the packed fault
/// simulation, and faults targeted.
pub const TESTABILITY_OUTPUTS: [[usize; 5]; 2] =
    [[2337, 114, 114, 4181, 4314], [1735, 334, 334, 3070, 3192]];

/// Checks the prepared data of the barcode system (System 1) against the
/// Fig. 6 / Fig. 8 / §3 / §5.2 figures.
pub fn check_system1(soc: &Soc, data: &[Option<CoreTestData>]) -> Result<(), String> {
    let find = |core: Core| -> Result<(&CoreTestData, Core), String> {
        let i = soc
            .cores()
            .iter()
            .position(|inst| *inst.core() == core)
            .ok_or_else(|| format!("no {} instance", core.name()))?;
        let d = data[i]
            .as_ref()
            .ok_or_else(|| format!("{} not prepared", core.name()))?;
        Ok((d, core))
    };
    let port = |core: &Core, name: &str| {
        core.find_port(name)
            .ok_or_else(|| format!("{} has no port {name}", core.name()))
    };
    let lat = |v: &CoreVersion, i, o| v.pair_latency(i, o).unwrap_or(u32::MAX);
    let lib = CellLibrary::generic_08um();
    let mut got = Vec::new();
    let mut want = Vec::new();

    let (cpu, core) = find(cpu_core())?;
    let (data_p, a_lo, a_hi) = (
        port(&core, "Data")?,
        port(&core, "AddrLo")?,
        port(&core, "AddrHi")?,
    );
    let (reset, read) = (port(&core, "Reset")?, port(&core, "Read")?);
    let (intr, write) = (port(&core, "Interrupt")?, port(&core, "Write")?);
    for v in &cpu.versions {
        got.push(vec![
            u64::from(lat(v, data_p, a_lo)),
            u64::from(lat(v, data_p, a_hi)),
            v.overhead_cells(&lib),
            u64::from(lat(v, reset, read)),
            u64::from(lat(v, intr, write)),
        ]);
    }
    want.extend([
        vec![6, 2, 3, 2, 2],
        vec![1, 2, 10, 2, 2],
        vec![1, 1, 30, 2, 2],
    ]);

    let (prep, core) = find(preprocessor_core())?;
    let (num, db, addr) = (
        port(&core, "NUM")?,
        port(&core, "DB")?,
        port(&core, "Address")?,
    );
    let (reset, eoc) = (port(&core, "Reset")?, port(&core, "Eoc")?);
    let v = &prep.versions;
    got.push(
        [
            (0, num, db),
            (1, num, db),
            (2, num, db),
            (0, num, addr),
            (1, num, addr),
            (0, reset, eoc),
        ]
        .iter()
        .map(|&(k, i, o)| v.get(k).map_or(u64::MAX, |v| u64::from(lat(v, i, o))))
        .collect(),
    );
    want.push(vec![5, 1, 1, 2, 2, 2]);

    let (disp, core) = find(display_core())?;
    let best_out = |v: &CoreVersion, input: &str| -> Result<u64, String> {
        let ip = port(&core, input)?;
        Ok(core
            .output_ports()
            .iter()
            .filter_map(|o| v.pair_latency(ip, *o))
            .min()
            .map_or(u64::MAX, u64::from))
    };
    let mut row = Vec::new();
    for v in &disp.versions {
        row.push(best_out(v, "D")?);
        row.push(best_out(v, "ALo")?);
    }
    row.push(disp.hscan.sequential_depth() as u64);
    row.push(disp.hscan.test_length(105) as u64);
    got.push(row);
    want.push(vec![2, 3, 2, 1, 1, 1, 4, 525]);

    if got == want {
        Ok(())
    } else {
        Err(format!("paper figures drifted: got {got:?}, want {want:?}"))
    }
}
