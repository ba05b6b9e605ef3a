//! The PM cost model pinned exactly: per-phase event totals of every tree,
//! compared byte for byte with `tests/golden/pm_costs.txt`.
//!
//! The paper argues in event counts (persists, flushed lines, PM reads and
//! misses, allocations; §IV-A, Eq. 1–2), and the emulator's counts are
//! deterministic for a fixed key set under `TimeMode::Model`. So one extra
//! persist per insert, or one more line read per search, fails here rather
//! than hiding in a noisy benchmark run. A change that is meant to move a
//! count shows it as a diff of the golden file: regenerate it with
//!
//! ```text
//! HART_BLESS_COSTS=1 cargo test --test cost_golden
//! ```
//!
//! and commit the result with the change. Every count in the file repeats
//! exactly from run to run.

use bench::{run_profile, TreeKind, PROFILE_SCANS, PROFILE_SCAN_ROWS};
use hart_suite::workloads::random;
use hart_suite::{HartConfig, LatencyConfig};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/pm_costs.txt");

/// Profile every configuration and render the golden file's text.
fn render() -> String {
    let keys = random(2_000, 42);
    let configs = [
        ("HART-kh2", TreeKind::Hart, HartConfig::with_hash_key_len(2)),
        ("HART-kh3", TreeKind::Hart, HartConfig::with_hash_key_len(3)),
        ("FPTree", TreeKind::FpTree, HartConfig::default()),
        ("WOART", TreeKind::Woart, HartConfig::default()),
        ("ART+CoW", TreeKind::ArtCow, HartConfig::default()),
        ("WORT", TreeKind::Wort, HartConfig::default()),
    ];
    let mut out = format!(
        "# PM event totals per phase: random(2000, 42) at 300/300, TimeMode::Model;\n\
         # {PROFILE_SCANS} seeded scans of at most {PROFILE_SCAN_ROWS} rows; reopen = drop + open/recover.\n\
         # Regenerate with HART_BLESS_COSTS=1 cargo test --test cost_golden\n"
    );
    for (label, kind, hart) in configs {
        for (phase, c) in run_profile(kind, hart, LatencyConfig::c300_300(), &keys).phases {
            write!(
                out,
                "{label:<8} {phase:<6} persists={} flushed={} read_lines={} read_misses={} \
                 raw_allocs={} raw_frees={}",
                c.persists, c.lines_flushed, c.read_lines, c.read_misses, c.raw_allocs, c.raw_frees
            )
            .unwrap();
            if kind == TreeKind::Hart {
                write!(
                    out,
                    " ep_allocs={} ep_commits={} ep_retires={} ep_recycles={}",
                    c.ep_allocs, c.ep_commits, c.ep_retires, c.ep_recycles
                )
                .unwrap();
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn pm_costs_match_the_golden_file() {
    let got = render();
    if std::env::var("HART_BLESS_COSTS").is_ok_and(|v| v == "1") {
        std::fs::write(GOLDEN, &got).expect("write the golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("tests/golden/pm_costs.txt is missing; regenerate it with HART_BLESS_COSTS=1");
    if got != want {
        let mut diff = String::new();
        for (old, new) in want.lines().zip(got.lines()).filter(|(a, b)| a != b) {
            writeln!(diff, "- {old}\n+ {new}").unwrap();
        }
        panic!(
            "PM event counts moved from tests/golden/pm_costs.txt \
             (bless with HART_BLESS_COSTS=1 if the move is intended):\n{diff}"
        );
    }
}
