//! The reconciliation: span self-times from the traced in-process run,
//! multiplied out per block and set against the untraced run's measured
//! µs per block, with the remainder stated.

use crate::inproc::{Span, SpanKind, NO_SPAN};
use marlin_types::{MsgClass, Phase};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Calls and total self time of one kind of span.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KindTotal {
    pub calls: u64,
    pub self_ns: u64,
}

impl KindTotal {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Ledger rows: the span kinds, with vote steps split into those that
/// only stage a share and those that complete a quorum (verify the
/// batch, combine, and build what the leader sends next).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Row {
    Encode(MsgClass),
    Decode(MsgClass),
    StepNewTxs,
    StepProposal(Phase),
    StepVote,
    StepQuorumVote,
    StepDecide,
    StepOther,
    /// Self time of the delivery/submission/timer wrappers: the
    /// driver's own queue handling between the layer calls.
    Driver,
}

impl Row {
    pub fn label(&self) -> String {
        match self {
            Row::Encode(c) => format!("types   encode {c}"),
            Row::Decode(c) => format!("types   decode {c}"),
            Row::StepNewTxs => "core    step new-transactions".into(),
            Row::StepProposal(p) => format!("core    step proposal/{p:?}"),
            Row::StepVote => "core    step vote (staged)".into(),
            Row::StepQuorumVote => "core    step vote (quorum: verify, combine, next)".into(),
            Row::StepDecide => "core    step decide".into(),
            Row::StepOther => "core    step other".into(),
            Row::Driver => "driver  queue handling".into(),
        }
    }

    pub fn is_step(&self) -> bool {
        matches!(
            self,
            Row::StepNewTxs
                | Row::StepProposal(_)
                | Row::StepVote
                | Row::StepQuorumVote
                | Row::StepDecide
                | Row::StepOther
        )
    }
}

/// Folds spans into ledger rows. A span's self time is its duration
/// minus the durations of the spans nested directly inside it.
pub fn fold(spans: &[Span]) -> BTreeMap<Row, KindTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut has_encode_child = vec![false; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            if matches!(s.kind, SpanKind::Encode(_)) {
                has_encode_child[s.parent as usize] = true;
            }
        }
    }
    let mut rows: BTreeMap<Row, KindTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let row = match s.kind {
            SpanKind::Deliver | SpanKind::Submit | SpanKind::Timer => Row::Driver,
            SpanKind::Encode(c) => Row::Encode(c),
            SpanKind::Decode(c) => Row::Decode(c),
            SpanKind::StepNewTxs => Row::StepNewTxs,
            SpanKind::StepTimer => Row::StepOther,
            SpanKind::StepMessage(MsgClass::Proposal(p)) => Row::StepProposal(p),
            SpanKind::StepMessage(MsgClass::Vote(_)) => {
                // The vote that completes the quorum is the one whose
                // delivery sent something.
                if s.parent != NO_SPAN && has_encode_child[s.parent as usize] {
                    Row::StepQuorumVote
                } else {
                    Row::StepVote
                }
            }
            SpanKind::StepMessage(MsgClass::Decide) => Row::StepDecide,
            SpanKind::StepMessage(_) => Row::StepOther,
        };
        let total = rows.entry(row).or_default();
        total.calls += 1;
        total.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
    }
    rows
}

/// The ledger's bottom line.
#[derive(Clone, Copy, Debug)]
pub struct Reconciled {
    /// Σ rows, µs per block (traced run).
    pub explained_us_per_block: f64,
    /// Untraced run, µs per block.
    pub measured_us_per_block: f64,
    /// 1 − explained ÷ measured.
    pub unexplained_share: f64,
    /// Σ step rows, µs per block.
    pub step_us_per_block: f64,
}

pub fn reconcile(
    rows: &BTreeMap<Row, KindTotal>,
    traced_blocks: u64,
    measured_us_per_block: f64,
) -> Reconciled {
    let blocks = traced_blocks.max(1) as f64;
    let per_block = |pred: &dyn Fn(&Row) -> bool| {
        rows.iter()
            .filter(|(r, _)| pred(r))
            .map(|(_, t)| t.self_ns as f64)
            .sum::<f64>()
            / 1e3
            / blocks
    };
    // The driver's own queue handling is not a layer cost: it stays in
    // the remainder.
    let explained = per_block(&|r| *r != Row::Driver);
    Reconciled {
        explained_us_per_block: explained,
        measured_us_per_block,
        unexplained_share: 1.0 - explained / measured_us_per_block,
        step_us_per_block: per_block(&Row::is_step),
    }
}

/// Renders the ledger table.
pub fn render(
    rows: &BTreeMap<Row, KindTotal>,
    traced_blocks: u64,
    r: &Reconciled,
    isolated: &[(&str, f64)],
) -> String {
    let blocks = traced_blocks.max(1) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<54} {:>11} {:>10} {:>10} {:>7}",
        "layer   call", "calls/block", "self us", "us/block", "share"
    );
    for (row, t) in rows {
        let us_per_block = t.self_ns as f64 / 1e3 / blocks;
        let _ = writeln!(
            out,
            "{:<54} {:>11.2} {:>10.2} {:>10.2} {:>6.1}%",
            row.label(),
            t.calls as f64 / blocks,
            t.mean_ns() / 1e3,
            us_per_block,
            us_per_block / r.measured_us_per_block * 100.0
        );
    }
    let _ = writeln!(
        out,
        "{:<54} {:>11} {:>10} {:>10.2} {:>6.1}%",
        "sum of layer rows (driver row excluded)",
        "",
        "",
        r.explained_us_per_block,
        r.explained_us_per_block / r.measured_us_per_block * 100.0
    );
    let _ = writeln!(
        out,
        "{:<54} {:>11} {:>10} {:>10.2} {:>6.1}%",
        "measured, untraced in-process run", "", "", r.measured_us_per_block, 100.0
    );
    let _ = writeln!(
        out,
        "{:<54} {:>11} {:>10} {:>10.2} {:>6.1}%",
        "unexplained (driver, allocation, clock reads)",
        "",
        "",
        r.measured_us_per_block - r.explained_us_per_block,
        r.unexplained_share * 100.0
    );
    let _ = writeln!(
        out,
        "isolated timings of calls made inside the step rows (not added again):"
    );
    for (name, us) in isolated {
        let _ = writeln!(out, "  {name:<52} {us:>10.2} us");
    }
    out
}

/// Writes the spans as CSV, one per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 64);
    text.push_str("id,parent,cause,kind,replica,height,start_ns,end_ns\n");
    let opt = |id: u32| {
        if id == NO_SPAN {
            String::new()
        } else {
            id.to_string()
        }
    };
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            text,
            "{i},{},{},{:?},{},{},{},{}",
            opt(s.parent),
            opt(s.cause),
            s.kind,
            s.replica,
            s.height,
            s.start_ns,
            s.end_ns
        );
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            parent,
            cause: NO_SPAN,
            start_ns,
            end_ns,
            height: 1,
            replica: 0,
        }
    }

    #[test]
    fn self_time_excludes_nested_children_and_quorum_votes_are_split_out() {
        let vote = MsgClass::Vote(Phase::Prepare);
        let spans = vec![
            // A delivery of a vote that only stages the share.
            span(SpanKind::Deliver, NO_SPAN, 0, 100),
            span(SpanKind::Decode(vote), 0, 10, 30),
            span(SpanKind::StepMessage(vote), 0, 30, 90),
            // A delivery of the vote that completes the quorum: it encodes.
            span(SpanKind::Deliver, NO_SPAN, 100, 400),
            span(SpanKind::Decode(vote), 3, 110, 130),
            span(SpanKind::StepMessage(vote), 3, 130, 330),
            span(SpanKind::Encode(MsgClass::Decide), 3, 340, 390),
        ];
        let rows = fold(&spans);
        assert_eq!(
            rows[&Row::StepVote],
            KindTotal {
                calls: 1,
                self_ns: 60
            }
        );
        assert_eq!(
            rows[&Row::StepQuorumVote],
            KindTotal {
                calls: 1,
                self_ns: 200
            }
        );
        assert_eq!(
            rows[&Row::Decode(vote)],
            KindTotal {
                calls: 2,
                self_ns: 40
            }
        );
        assert_eq!(
            rows[&Row::Encode(MsgClass::Decide)],
            KindTotal {
                calls: 1,
                self_ns: 50
            }
        );
        // Deliver self time: (100 − 20 − 60) + (300 − 20 − 200 − 50).
        assert_eq!(
            rows[&Row::Driver],
            KindTotal {
                calls: 2,
                self_ns: 50
            }
        );

        // One block, measured at 0.5 µs: 350 ns of layer rows explained.
        let r = reconcile(&rows, 1, 0.5);
        assert!((r.explained_us_per_block - 0.35).abs() < 1e-9);
        assert!((r.unexplained_share - 0.3).abs() < 1e-9);
        assert!((r.step_us_per_block - 0.26).abs() < 1e-9);
    }
}
