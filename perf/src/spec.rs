//! The benchmark's contract in one place: which metrics exist, their
//! units, which way is better, and how far an end-to-end metric may
//! worsen before it counts as a regression. `BENCHMARK.json` at the
//! repository root is this table rendered (`--print-benchmark-json`);
//! a test keeps the two identical.

use crate::workload::WORKLOADS;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 30;

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "goodput_ktps",
        unit: "ktx/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "commit_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "outage_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

use Better::{Higher, Lower};

/// (name, unit, better) of every per-layer metric a traced run prints.
pub const PER_LAYER: [(&str, &str, Better); 76] = [
    ("types.codec.encode_proposal_us", "us", Lower),
    ("types.codec.decode_proposal_us", "us", Lower),
    ("types.codec.encode_vote_ns", "ns", Lower),
    ("types.codec.decode_vote_ns", "ns", Lower),
    ("types.codec.wire_bytes_per_tx", "B/tx", Lower),
    ("types.block.hash_us_per_block", "us", Lower),
    ("types.tree.insert_commit_ns_per_block", "ns", Lower),
    ("types.tree.prune_ns_per_block", "ns", Lower),
    ("crypto.sign_partial_ns", "ns", Lower),
    ("crypto.verify_partial_ns", "ns", Lower),
    ("crypto.verify_batch_ns_per_sig", "ns", Lower),
    ("crypto.combine_ns", "ns", Lower),
    ("crypto.verify_combined_ns", "ns", Lower),
    ("crypto.sha256_mb_per_s", "MB/s", Higher),
    ("mempool.admit_ns_per_tx", "ns", Lower),
    ("mempool.take_ns_per_tx", "ns", Lower),
    ("mempool.admit_unbounded_ns_per_tx", "ns", Lower),
    ("mempool.rejected_share", "share", Lower),
    ("core.step.new_txs_us", "us", Lower),
    ("core.step.proposal_us", "us", Lower),
    ("core.step.vote_ns", "ns", Lower),
    ("core.step.qc_us", "us", Lower),
    ("core.step.decide_us", "us", Lower),
    ("core.step_us_per_block", "us", Lower),
    ("core.msgs_per_block", "count", Lower),
    ("core.authenticators_per_block", "count", Lower),
    ("core.journal.record_ns", "ns", Lower),
    ("core.journal.writes_per_block", "count", Lower),
    ("core.phase.prepare_qc_ms", "ms", Lower),
    ("core.phase.commit_qc_ms", "ms", Lower),
    ("core.lane.consensus_share", "share", Lower),
    ("core.lane.wire_share", "share", Lower),
    ("core.lane.journal_share", "share", Lower),
    ("core.lane.crypto_share", "share", Lower),
    ("core.view_changes", "count", Lower),
    ("core.view_change_ms", "ms", Lower),
    ("core.sync.rejoin_ms", "ms", Lower),
    ("storage.filedisk.append_us", "us", Lower),
    ("storage.filedisk.sync_us", "us", Lower),
    ("storage.wal.append_us", "us", Lower),
    ("storage.snapshot.save_us", "us", Lower),
    ("runtime.transport.tcp_rtt_small_us", "us", Lower),
    ("runtime.transport.tcp_rtt_block_us", "us", Lower),
    (
        "runtime.transport.frame_reassemble_mb_per_s",
        "MB/s",
        Higher,
    ),
    ("runtime.channel.handoff_us", "us", Lower),
    ("runtime.journal_writer.ack_us", "us", Lower),
    ("runtime.threads_per_replica", "count", Lower),
    ("runtime.ctx_switches_per_block", "count", Lower),
    ("runtime.send_drops", "count", Lower),
    ("runtime.decode_errors", "count", Lower),
    ("runtime.cpu_over_inproc_ratio", "ratio", Lower),
    ("telemetry.trace_note_ns", "ns", Lower),
    ("telemetry.registry_counter_inc_ns", "ns", Lower),
    ("telemetry.trace_events_per_block", "count", Lower),
    ("client.gen_late_p99_ms", "ms", Lower),
    ("client.retries", "count", Lower),
    ("client.stall_windows_share", "share", Lower),
    ("client.open_p50_ms", "ms", Lower),
    ("client.commit_p95_ms", "ms", Lower),
    ("client.commit_p99_ms", "ms", Lower),
    ("client.goodput_decay_ratio", "ratio", Higher),
    ("client.committed_share", "share", Higher),
    ("process.cpu_us_per_tx", "us", Lower),
    ("process.peak_rss_mb", "MB", Lower),
    ("host.calib_ms", "ms", Lower),
    ("host.quiet_retries", "count", Lower),
    ("host.two_thread_speedup", "ratio", Higher),
    ("trace.overhead_share", "share", Lower),
    ("ledger.unexplained_share", "share", Lower),
    ("ledger.step_share", "share", Lower),
    ("twin.inproc_ktps", "ktx/s", Higher),
    ("twin.tcp_ktps", "ktx/s", Higher),
    ("twin.hotstuff.goodput_ktps", "ktx/s", Higher),
    ("twin.hotstuff.commit_p50_ms", "ms", Lower),
    ("twin.hotstuff.inproc_ktps", "ktx/s", Higher),
    ("twin.hotstuff.msgs_per_block", "count", Lower),
];

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(w.name),
            json_str(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(name),
            json_str(unit),
            json_str(better.as_str())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_tables_stay_inside_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(
            names.iter().all(|n| name_ok(n)),
            "a name breaks the name rule"
        );
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 << 10);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --release --manifest-path perf/Cargo.toml -- --print-benchmark-json > BENCHMARK.json`"
        );
    }
}
