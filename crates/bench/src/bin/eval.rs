//! Regenerates the paper's tables and figures on the simulated testbed.
//!
//! ```text
//! eval [--full] [--json[=PATH]] [table1|fig10-tvl|fig10g|fig10h|fig10i|fig10j|ablate-shadow|ablate-sig|ablate-four-phase|ablate-batch|mempool|sync-rejoin|all]
//! ```
//!
//! Without `--full` the sweeps run at reduced durations and fewer
//! points (minutes → seconds); the *shapes* are preserved either way.
//! With `--json`, every printed table is also written as a
//! machine-readable mirror to `BENCH_results.json` (or `PATH`).

use marlin_bench::report::{bytes, ktps, ms, JsonReport, Table};
use marlin_bench::{figures, vc, Effort};
use marlin_core::ProtocolKind;
use marlin_crypto::{sha256_backend, QcFormat};
use marlin_simnet::{run_scenario_with_telemetry, Scenario, SimConfig};
use marlin_telemetry::{Note, SharedSink, Trace};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let effort = if full { Effort::Full } else { Effort::Quick };
    let json_path: Option<std::path::PathBuf> = args
        .iter()
        .find(|a| *a == "--json" || a.starts_with("--json="))
        .map(|a| {
            a.strip_prefix("--json=")
                .unwrap_or("BENCH_results.json")
                .into()
        });
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let wanted: Vec<&str> = if wanted.is_empty() {
        vec!["all"]
    } else {
        wanted
    };
    let all = wanted.contains(&"all");
    let run = |name: &str| all || wanted.contains(&name);

    println!(
        "# marlin-bft evaluation (effort: {effort:?}, sha256 backend: {})\n",
        sha256_backend()
    );
    let t0 = std::time::Instant::now();
    let mut rep = JsonReport::new(if full { "full" } else { "quick" });

    if run("table1") {
        table1(effort, &mut rep);
    }
    if run("fig10-tvl") {
        fig10_tvl(effort, &mut rep);
    }
    if run("fig10g") {
        fig10g(effort, &mut rep);
    }
    if run("fig10h") {
        fig10h(effort, &mut rep);
    }
    if run("fig10i") {
        fig10i(&mut rep);
    }
    if run("fig10j") {
        fig10j(effort, &mut rep);
    }
    if run("ablate-shadow") {
        ablate_shadow(&mut rep);
    }
    if run("ablate-sig") {
        ablate_sig(effort, &mut rep);
    }
    if run("ablate-four-phase") {
        ablate_four_phase(&mut rep);
    }
    if run("ablate-batch") {
        ablate_batch(effort, &mut rep);
    }
    if run("mempool") {
        mempool(effort, &mut rep);
    }
    if run("sync-rejoin") {
        sync_rejoin(effort, &mut rep);
    }

    if let Some(path) = json_path {
        rep.write(&path).expect("write JSON results");
        println!("\n_wrote {} sections to {}_", rep.len(), path.display());
    }
    println!("\n_total wall-clock: {:.1}s_", t0.elapsed().as_secs_f64());
}

/// Table I — measured view-change complexity vs n.
fn table1(effort: Effort, rep: &mut JsonReport) {
    println!("## Table I — view-change complexity (measured)\n");
    println!(
        "One forced view change per cell; `bytes`/`auths`/`msgs` count all \
protocol traffic from the leader crash to the first commit of the new view \
(catch-up recovery traffic is excluded from the measurement window).\n"
    );
    let fs: &[usize] = match effort {
        Effort::Quick => &[1, 5, 10],
        Effort::Full => &[1, 5, 10, 20, 30],
    };
    for format in [QcFormat::SigGroup, QcFormat::Threshold] {
        println!("### QC format: {format:?}\n");
        let mut table = Table::new(&[
            "protocol",
            "n",
            "vc bytes",
            "vc auths",
            "vc msgs",
            "latency (ms)",
        ]);
        for &f in fs {
            for protocol in [
                ProtocolKind::Marlin,
                ProtocolKind::HotStuff,
                ProtocolKind::Jolteon,
            ] {
                let m = vc::measure_view_change(
                    protocol,
                    f,
                    protocol == ProtocolKind::Marlin, // Marlin measured on its unhappy path
                    format,
                    SimConfig::paper_testbed(),
                );
                let w = m.window.protocol_total();
                table.row(vec![
                    protocol.name().to_string(),
                    m.n.to_string(),
                    bytes(w.bytes),
                    w.authenticators.to_string(),
                    w.messages.to_string(),
                    ms(m.latency_ns),
                ]);
            }
        }
        rep.section(
            &format!("table1_{}", format!("{format:?}").to_lowercase()),
            &format!("Table I — view-change complexity ({format:?})"),
            &table,
        );
        println!("{}", table.render());
    }
}

/// Fig. 10a–f — throughput vs latency curves.
fn fig10_tvl(effort: Effort, rep: &mut JsonReport) {
    println!("## Fig. 10a–f — throughput vs latency\n");
    let fs: &[usize] = match effort {
        Effort::Quick => &[1, 2],
        Effort::Full => &[1, 2, 5, 10, 20, 30],
    };
    for &f in fs {
        println!("### f = {f} (n = {})\n", 3 * f + 1);
        let mut table = Table::new(&[
            "protocol",
            "offered (ktx/s)",
            "throughput (ktx/s)",
            "latency (ms)",
            "p99 (ms)",
        ]);
        for protocol in [ProtocolKind::HotStuff, ProtocolKind::Marlin] {
            for point in figures::throughput_vs_latency(protocol, f, effort) {
                table.row(vec![
                    protocol.name().to_string(),
                    ktps(point.rate_tps as f64),
                    ktps(point.metrics.throughput_tps),
                    format!("{:.1}", point.metrics.latency.mean_ms),
                    format!("{:.1}", point.metrics.latency.p99_ms),
                ]);
            }
        }
        rep.section(
            &format!("fig10_tvl_f{f}"),
            &format!("Fig. 10a–f — throughput vs latency (f = {f})"),
            &table,
        );
        println!("{}", table.render());
    }
}

/// Fig. 10g — peak throughput across f.
fn fig10g(effort: Effort, rep: &mut JsonReport) {
    println!("## Fig. 10g — peak throughput (150-byte requests)\n");
    let fs: &[usize] = match effort {
        Effort::Quick => &[1, 2, 3],
        Effort::Full => &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    };
    let mut table = Table::new(&[
        "f",
        "n",
        "Marlin (ktx/s)",
        "HotStuff (ktx/s)",
        "Marlin advantage",
    ]);
    for &f in fs {
        let m = figures::peak_throughput(ProtocolKind::Marlin, f, effort);
        let h = figures::peak_throughput(ProtocolKind::HotStuff, f, effort);
        let adv = (m.throughput_tps / h.throughput_tps - 1.0) * 100.0;
        table.row(vec![
            f.to_string(),
            (3 * f + 1).to_string(),
            ktps(m.throughput_tps),
            ktps(h.throughput_tps),
            format!("{adv:+.1}%"),
        ]);
    }
    rep.section("fig10g", "Fig. 10g — peak throughput (150-byte)", &table);
    println!("{}", table.render());
}

/// Fig. 10h — peak throughput for no-op requests.
fn fig10h(effort: Effort, rep: &mut JsonReport) {
    println!("## Fig. 10h — peak throughput (no-op requests)\n");
    let mut table = Table::new(&[
        "f",
        "n",
        "Marlin (ktx/s)",
        "HotStuff (ktx/s)",
        "Marlin advantage",
    ]);
    for f in [1usize, 2, 5] {
        let m = figures::peak_throughput_noop(ProtocolKind::Marlin, f, effort);
        let h = figures::peak_throughput_noop(ProtocolKind::HotStuff, f, effort);
        let adv = (m.throughput_tps / h.throughput_tps - 1.0) * 100.0;
        table.row(vec![
            f.to_string(),
            (3 * f + 1).to_string(),
            ktps(m.throughput_tps),
            ktps(h.throughput_tps),
            format!("{adv:+.1}%"),
        ]);
    }
    rep.section("fig10h", "Fig. 10h — peak throughput (no-op)", &table);
    println!("{}", table.render());
}

/// Fig. 10i — view-change latency.
fn fig10i(rep: &mut JsonReport) {
    println!("## Fig. 10i — view-change latency\n");
    let mut table = Table::new(&[
        "f",
        "Marlin happy (ms)",
        "Marlin unhappy (ms)",
        "HotStuff (ms)",
    ]);
    for f in [1usize, 10] {
        let happy = vc::measure_view_change(
            ProtocolKind::Marlin,
            f,
            false,
            QcFormat::SigGroup,
            SimConfig::paper_testbed(),
        );
        assert!(happy.took_happy_path, "expected the happy path at f={f}");
        let unhappy = vc::measure_view_change(
            ProtocolKind::Marlin,
            f,
            true,
            QcFormat::SigGroup,
            SimConfig::paper_testbed(),
        );
        assert!(
            !unhappy.took_happy_path,
            "expected the unhappy path at f={f}"
        );
        let hotstuff = vc::measure_view_change(
            ProtocolKind::HotStuff,
            f,
            false,
            QcFormat::SigGroup,
            SimConfig::paper_testbed(),
        );
        table.row(vec![
            f.to_string(),
            ms(happy.latency_ns),
            ms(unhappy.latency_ns),
            ms(hotstuff.latency_ns),
        ]);
    }
    rep.section("fig10i", "Fig. 10i — view-change latency", &table);
    println!("{}", table.render());
}

/// Fig. 10j — rotating leaders under failures (f = 3).
fn fig10j(effort: Effort, rep: &mut JsonReport) {
    println!("## Fig. 10j — rotating leaders under failures (f = 3)\n");
    let rate = 40_000;
    let mut table = Table::new(&[
        "crashed",
        "Marlin (ktx/s)",
        "HotStuff (ktx/s)",
        "Marlin advantage",
    ]);
    for crashes in [0usize, 1, 3] {
        let m = figures::rotating_under_failures(ProtocolKind::Marlin, crashes, rate, effort);
        let h = figures::rotating_under_failures(ProtocolKind::HotStuff, crashes, rate, effort);
        let adv = (m.throughput_tps / h.throughput_tps - 1.0) * 100.0;
        table.row(vec![
            crashes.to_string(),
            ktps(m.throughput_tps),
            ktps(h.throughput_tps),
            format!("{adv:+.1}%"),
        ]);
    }
    rep.section(
        "fig10j",
        "Fig. 10j — rotating leaders under failures",
        &table,
    );
    println!("{}", table.render());
}

/// Ablation A1 — shadow blocks.
fn ablate_shadow(rep: &mut JsonReport) {
    println!("## Ablation A1 — shadow blocks (unhappy view-change bytes)\n");
    let mut table = Table::new(&["f", "with shadow (bytes)", "without (bytes)", "saved"]);
    for f in [1usize, 5] {
        let (with, without) = figures::ablate_shadow_blocks(f);
        let saved = 100.0 * (without.saturating_sub(with)) as f64 / without.max(1) as f64;
        table.row(vec![
            f.to_string(),
            bytes(with),
            bytes(without),
            format!("{saved:.1}%"),
        ]);
    }
    rep.section("ablate_shadow", "Ablation A1 — shadow blocks", &table);
    println!("{}", table.render());
}

/// Ablation A2 — QC wire format (the paper's signature-group vs
/// threshold-signature instantiation trade, Section I).
fn ablate_sig(_effort: Effort, rep: &mut JsonReport) {
    println!("## Ablation A2 — QC format (signature group vs threshold)\n");
    println!(
        "Unhappy view-change window under each instantiation: groups of conventional signatures avoid pairings but cost n×64 B per certificate.\n"
    );
    let mut table = Table::new(&[
        "f",
        "SigGroup bytes",
        "Threshold bytes",
        "SigGroup auths",
        "Threshold auths",
    ]);
    for f in [1usize, 5, 10] {
        let (group, threshold) = figures::ablate_qc_format(f);
        let (gw, tw) = (
            group.window.protocol_total(),
            threshold.window.protocol_total(),
        );
        table.row(vec![
            f.to_string(),
            bytes(gw.bytes),
            bytes(tw.bytes),
            gw.authenticators.to_string(),
            tw.authenticators.to_string(),
        ]);
    }
    rep.section("ablate_sig", "Ablation A2 — QC format", &table);
    println!("{}", table.render());
}

/// Ablation A3 — why virtual blocks exist (Section IV-D).
fn ablate_four_phase(rep: &mut JsonReport) {
    println!("## Ablation A3 — virtual blocks vs the four-phase design\n");
    println!(
        "View-change latency of the paper's \"half-baked\" alternative (replica-voted pre-prepare without virtual blocks, then a three-phase commit):\n"
    );
    let mut table = Table::new(&["variant", "f=1 (ms)", "f=5 (ms)"]);
    let a = figures::ablate_four_phase(1);
    let b = figures::ablate_four_phase(5);
    for (row_a, row_b) in a.iter().zip(b.iter()) {
        table.row(vec![row_a.0.clone(), ms(row_a.1), ms(row_b.1)]);
    }
    rep.section("ablate_four_phase", "Ablation A3 — virtual blocks", &table);
    println!("{}", table.render());
    println!(
        "The four-phase design is linear but *slower than HotStuff* — exactly the trade the paper rejects; the virtual block removes two of its phases.\n"
    );
}

/// Ablation A4 — the verification stack (DESIGN.md §12): serial
/// per-share verification on one inline worker vs staged batch
/// verification on a 4-worker pool, measured where crypto is the
/// bottleneck.
fn ablate_batch(effort: Effort, rep: &mut JsonReport) {
    println!("## Ablation A4 — batch verification + crypto worker pool\n");
    println!(
        "Crypto-bound peak (Marlin, f = 2, LAN links, 32-tx blocks, ECDSA-like costs): the legacy serial verification stack vs batch verification with 4 crypto workers.\n"
    );
    let (serial, batched) = figures::ablate_batch_crypto(2, effort);
    let speedup = (batched.throughput_tps / serial.throughput_tps - 1.0) * 100.0;
    let mut table = Table::new(&["stack", "peak (ktx/s)", "mean latency (ms)", "vs serial"]);
    table.row(vec![
        "serial verify, 1 worker".to_string(),
        ktps(serial.throughput_tps),
        ms((serial.latency.mean_ms * 1e6) as u64),
        "—".to_string(),
    ]);
    table.row(vec![
        "batch verify, 4 workers".to_string(),
        ktps(batched.throughput_tps),
        ms((batched.latency.mean_ms * 1e6) as u64),
        format!("{speedup:+.1}%"),
    ]);
    rep.section(
        "ablate_batch",
        "Ablation A4 — batch verification stack",
        &table,
    );
    println!("{}", table.render());
}

/// Saturation behaviour of the client path: peak goodput, goodput at
/// twice the peak's offered rate, and leader proposal egress per
/// committed transaction — legacy inline payloads vs bounded admission
/// with digest dissemination.
fn mempool(effort: Effort, rep: &mut JsonReport) {
    println!("## Mempool — goodput past saturation and proposal egress\n");
    println!(
        "Open-loop overload (Marlin, paper testbed, 150-byte transactions): sweep the offered-load ladder for the peak, then offer 2\u{00d7} the peak rate. The legacy path queues without bound and lets the backlog displace fresh transactions; bounded admission + digest dissemination sheds the excess at the door and keeps goodput at the plateau.\n"
    );
    let fs: &[usize] = match effort {
        Effort::Quick => &[1, 5],
        Effort::Full => &[1, 5, 10],
    };
    let mut table = Table::new(&[
        "n",
        "client path",
        "peak (ktx/s)",
        "@rate",
        "2\u{00d7} overload (ktx/s)",
        "retained",
        "proposal B/tx",
    ]);
    for &f in fs {
        for bounded in [false, true] {
            let p = figures::overload_contrast(f, effort, bounded);
            table.row(vec![
                format!("{}", 3 * f + 1),
                if bounded {
                    "bounded + dissemination".to_string()
                } else {
                    "legacy inline".to_string()
                },
                ktps(p.peak.throughput_tps),
                format!("{}k", p.peak_rate / 1000),
                ktps(p.overload.throughput_tps),
                format!("{:.0}%", p.retention() * 100.0),
                format!("{:.1}", p.overload.proposal_bytes_per_tx()),
            ]);
        }
    }
    rep.section(
        "mempool",
        "Mempool — goodput past saturation and proposal egress",
        &table,
    );
    println!("{}", table.render());
}

/// Robustness R1 — rejoin latency and storage footprint of the block
/// sync engine (DESIGN.md §14): the long-lag crash/rejoin cell at
/// increasing lag depths, with sync on vs off.
fn sync_rejoin(effort: Effort, rep: &mut JsonReport) {
    println!("## Robustness R1 — crash/rejoin latency and storage footprint\n");
    println!(
        "A replica crashes ~50 ms into the run and recovers `FromDisk` deep into \
the chain. With sync on (snapshot anchors every 64 blocks) it rejoins through a \
snapshot jump plus pipelined range fetches while every replica prunes its \
committed prefix; with sync off it must fetch the whole gap block-by-block and \
nothing prunes. `lagger tip` is the recovered replica's committed height at the \
horizon; `rejoin` is sim time from `SyncStarted` to `SyncCompleted`.\n"
    );
    // The sync-off baseline replays the whole gap through the legacy
    // per-block fetch path — minutes of wall clock per cell — so quick
    // runs sweep only the sync engine; `--full` adds the baseline at
    // depth x1 for the before/after contrast.
    let cells: &[(u64, bool)] = match effort {
        Effort::Quick => &[(1, true), (2, true)],
        Effort::Full => &[(1, true), (1, false), (5, true), (10, true)],
    };
    let mut table = Table::new(&[
        "outage depth",
        "sync",
        "committed",
        "lagger tip",
        "rejoin (sim ms)",
        "resident blocks (max)",
        "verdict",
    ]);
    {
        for &(factor, sync_on) in cells {
            let mut scenario = if factor == 1 {
                Scenario::long_lag_rejoin()
            } else {
                Scenario::long_lag_rejoin_scaled(factor)
            };
            if !sync_on {
                scenario.sync_snapshot_interval = 0;
            }
            let trace = SharedSink::new(Trace::new());
            let out = run_scenario_with_telemetry(
                ProtocolKind::Marlin,
                &scenario,
                7,
                Box::new(trace.clone()),
            );
            let rejoin_ns = trace.with(|t| {
                let started = t
                    .events
                    .iter()
                    .find(|e| matches!(e.note, Note::SyncStarted { .. }))
                    .map(|e| e.at_ns);
                let done = t
                    .events
                    .iter()
                    .find(|e| matches!(e.note, Note::SyncCompleted { .. }))
                    .map(|e| e.at_ns);
                match (started, done) {
                    (Some(a), Some(b)) if b >= a => Some(b - a),
                    _ => None,
                }
            });
            table.row(vec![
                format!("x{factor}"),
                if sync_on { "on" } else { "off" }.to_string(),
                out.committed.to_string(),
                out.min_honest_tip.to_string(),
                rejoin_ns.map_or("—".to_string(), |ns| format!("{:.1}", ns as f64 / 1e6)),
                out.max_resident_blocks.to_string(),
                out.verdict().to_string(),
            ]);
        }
    }
    rep.section(
        "sync_rejoin",
        "Robustness R1 — rejoin latency and storage footprint",
        &table,
    );
    println!("{}", table.render());
}
