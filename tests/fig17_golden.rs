//! Golden Figure 17 grid: every cell's GraphR and CPU total time and total
//! energy at scale 1/256, as exact `f64` bit patterns, one line per cell,
//! so a diff names the cell that moved. Any change to a simulated fact of
//! the evaluation fails here.
//!
//! A change that moves the model on purpose re-records the file with
//! `GRAPHR_BLESS_GOLDEN=1 cargo test --release --test fig17_golden` and
//! announces the baseline reset, with the largest relative change per
//! figure.

use graphr_bench::figures;
use graphr_bench::ExperimentContext;

const GOLDEN: &str = "tests/golden/fig17_scale256.txt";

/// One line per cell: app, dataset, then GraphR time and energy and CPU
/// time and energy, each as the hex bits of its `f64`.
fn render() -> String {
    let (runs, _) = figures::figure17(&ExperimentContext::with_scale(1.0 / 256.0));
    let mut out = String::from("# app dataset graphr_ns graphr_j cpu_ns cpu_j (f64 bits)\n");
    for run in &runs {
        let bits = [
            run.graphr.time.as_nanos(),
            run.graphr.energy.as_joules(),
            run.cpu.time.as_nanos(),
            run.cpu.energy.as_joules(),
        ]
        .map(|v| format!("{:016x}", v.to_bits()));
        out.push_str(&format!(
            "{} {} {}\n",
            run.app.name(),
            run.dataset,
            bits.join(" ")
        ));
    }
    out
}

#[test]
fn figure17_cells_match_golden_bits() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let got = render();
    if std::env::var_os("GRAPHR_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write the golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read the golden file");
    let diff: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diff.is_empty() && want.lines().count() == got.lines().count(),
        "Figure 17 cells moved ({} of {} lines differ):\n{}",
        diff.len(),
        want.lines().count(),
        diff.join("\n")
    );
}
