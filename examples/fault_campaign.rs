//! The deterministic fault-injection campaign (Section IV / Figure 2
//! turned into an executable experiment).
//!
//! Runs every preset fault [`Scenario`] — crash/recover churn, a 2/2
//! partition that heals, lossy/laggy links, an equivocating leader, a
//! mid-run behavior flip, and the paper's Figure 2b *unsafe
//! view-change snapshot* attack — against Marlin, its four-phase
//! ablation, HotStuff, Jolteon, and the insecure two-phase strawman,
//! with the global invariant checker attached, and prints the verdict
//! table.
//!
//! A second grid runs the chained (pipelined) protocols — chained
//! Marlin's two-chain and chained HotStuff's three-chain — across the
//! same presets, and both restart grids run the crash-restart schedule
//! under the three recovery modes (DESIGN.md §9): `Amnesia` is
//! *expected* to read `UNSAFE` — a restarting voter that forgot its
//! journal re-votes and helps certify a conflicting commit — while
//! `FromDisk` (journal replay, torn tail included) and `WithMemory`
//! must stay clean.
//!
//! Expected headline: every honest-quorum protocol row reads `OK`
//! (zero safety violations, commits resume once the schedule goes
//! quiet), while `TwoPhaseInsecure` under the unsafe-snapshot schedule
//! reads `STALL` — the wedge Marlin's pre-prepare phase exists to
//! break.
//!
//! The campaign exits nonzero on any *unexpected* outcome: a safety
//! violation outside the amnesia demonstration cells, a missed Figure
//! 2b wedge, or an amnesia cell that fails to reproduce the fork — so
//! CI can run it as a gate.
//!
//! ```sh
//! cargo run --release --example fault_campaign \
//!     [-- --telemetry PATH] [--chained-telemetry PATH]
//! ```
//!
//! With `--telemetry PATH`, every non-chained cell feeds one shared
//! metrics registry (view-change paths, commit conflicts, journal
//! writes, catch-up round trips across the whole campaign) and the
//! JSON snapshot is written to `PATH`. `--chained-telemetry PATH` does
//! the same for the chained cells into a separate registry, so the
//! pipelined runs get their own snapshot artifact.

use marlin_bft::core::ProtocolKind;
use marlin_bft::simnet::{run_scenario, run_scenario_with_telemetry, CampaignReport, Scenario};
use marlin_bft::telemetry::{Registry, RegistryRecorder, SharedSink};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path_arg = |flag: &str| -> Option<std::path::PathBuf> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a path"))
                .into()
        })
    };
    let telemetry_path = path_arg("--telemetry");
    let chained_telemetry_path = path_arg("--chained-telemetry");
    let registry = Registry::new();
    let recorder = SharedSink::new(RegistryRecorder::new(&registry));
    let run = |kind, scenario: &Scenario, seed| {
        if telemetry_path.is_some() {
            run_scenario_with_telemetry(kind, scenario, seed, Box::new(recorder.clone()))
        } else {
            run_scenario(kind, scenario, seed)
        }
    };
    let chained_registry = Registry::new();
    let chained_recorder = SharedSink::new(RegistryRecorder::new(&chained_registry));
    let run_chained = |kind, scenario: &Scenario, seed| {
        if chained_telemetry_path.is_some() {
            run_scenario_with_telemetry(kind, scenario, seed, Box::new(chained_recorder.clone()))
        } else {
            run_scenario(kind, scenario, seed)
        }
    };

    let protocols = [
        ProtocolKind::Marlin,
        ProtocolKind::MarlinFourPhase,
        ProtocolKind::HotStuff,
        ProtocolKind::Jolteon,
        ProtocolKind::TwoPhaseInsecure,
    ];
    let seeds = [7u64, 42, 2022];
    let mut report = CampaignReport::new();
    for scenario in Scenario::all_presets() {
        for kind in protocols {
            for seed in seeds {
                report.push(run(kind, &scenario, seed));
            }
        }
    }
    print!("{}", report.render());

    // The chained (pipelined) campaign: both commit rules across the
    // full preset grid. Every cell must stay safe — the pipelined
    // adversaries (equivocation twins across in-flight blocks, the
    // one-broadcast snapshot attack) have no amnesia escape hatch here.
    let chained_protocols = [ProtocolKind::ChainedMarlin, ProtocolKind::ChainedHotStuff];
    let mut chained_report = CampaignReport::new();
    for scenario in Scenario::all_presets() {
        for kind in chained_protocols {
            for seed in seeds {
                chained_report.push(run_chained(kind, &scenario, seed));
            }
        }
    }
    println!("\nchained campaign (two-chain and three-chain pipelines):");
    print!("{}", chained_report.render());

    let wedged = report
        .rows()
        .iter()
        .filter(|r| r.protocol == "TwoPhaseInsecure" && r.scenario == "unsafe-snapshot")
        .all(|r| r.has_liveness_stall());
    println!(
        "\nFigure 2b wedge on the two-phase strawman: {}",
        if wedged {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    );

    // The durability contrast: one crash-restart schedule, three
    // recovery modes. Marlin only here; every kind journals, and the
    // other kinds' restart cells are in `tests/golden/campaign.tsv`.
    let mut restart = CampaignReport::new();
    for scenario in Scenario::restart_presets() {
        for seed in seeds {
            restart.push(run(ProtocolKind::Marlin, &scenario, seed));
        }
    }
    println!("\nrestart campaign (Marlin, three recovery modes):");
    print!("{}", restart.render());

    // The chained durability contrast: the same crash-restart schedule
    // under the three recovery modes, for both pipelined commit rules.
    let mut chained_restart = CampaignReport::new();
    for scenario in Scenario::chained_restart_presets() {
        for kind in chained_protocols {
            for seed in seeds {
                chained_restart.push(run_chained(kind, &scenario, seed));
            }
        }
    }
    println!("\nchained restart campaign (three recovery modes):");
    print!("{}", chained_restart.render());

    let mut failures = Vec::new();
    if report.total_safety_violations() > 0 {
        failures.push(format!(
            "main campaign recorded {} safety violations (expected 0)",
            report.total_safety_violations()
        ));
    }
    if chained_report.total_safety_violations() > 0 {
        failures.push(format!(
            "chained campaign recorded {} safety violations (expected 0)",
            chained_report.total_safety_violations()
        ));
    }
    if !wedged {
        failures.push("Figure 2b wedge not reproduced on the two-phase strawman".to_string());
    }
    for r in restart.rows().iter().chain(chained_restart.rows()) {
        let amnesia_demo = r.scenario.ends_with("/amnesia");
        if amnesia_demo && r.safety_violations() == 0 {
            failures.push(format!(
                "{} amnesia cell ({}, seed {}) failed to reproduce the fork — \
                 the durability demonstration lost its teeth",
                r.scenario, r.protocol, r.seed
            ));
        }
        if !amnesia_demo && r.safety_violations() > 0 {
            failures.push(format!(
                "{} ({}, seed {}) violated safety under recovery: {:?}",
                r.scenario, r.protocol, r.seed, r.violations
            ));
        }
    }
    println!(
        "\nAmnesia forks on all seeds; FromDisk and WithMemory stay clean: {}",
        if failures.is_empty() {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    );

    let write_snapshot = |path: &std::path::Path, registry: &Registry, what: &str| {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create telemetry output directory");
        }
        std::fs::write(path, registry.snapshot().to_json()).expect("write telemetry snapshot");
        println!("\nwrote {what} telemetry snapshot to {}", path.display());
    };
    if let Some(path) = telemetry_path {
        write_snapshot(&path, &registry, "campaign");
    }
    if let Some(path) = chained_telemetry_path {
        write_snapshot(&path, &chained_registry, "chained campaign");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("campaign FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
