//! Cross-replica trace merging and commit-latency decomposition.
//!
//! Given a [`Trace`] merged across replicas (the simulator's
//! deterministic clock stamps every note, so one ordered stream covers
//! the whole cluster), this module reconstructs a per-committed-block
//! timeline and splits end-to-end commit latency into its protocol
//! segments: propose → first vote of each phase → QC of each phase →
//! delivery. The number of distinct QC phases per block is the
//! protocol's phase count — 2 for Marlin's happy path, 3 for HotStuff —
//! measured from the trace rather than claimed.

use crate::event::{phase_label, ChargeEvent, Note, Trace};
use crate::export::json_str;
use crate::hist::Histogram;
use marlin_types::{Height, Phase};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// When a phase of one block was first voted and certified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhasePoint {
    /// The phase.
    pub phase: Phase,
    /// Leader time of the first valid vote share, if observed.
    pub first_vote_ns: Option<u64>,
    /// Leader time of QC formation.
    pub qc_ns: u64,
}

/// The reconstructed timeline of one block.
#[derive(Clone, Debug, Default)]
pub struct BlockTimeline {
    /// Block height.
    pub height: Height,
    /// When the block was proposed (leader broadcast time).
    pub proposed_ns: Option<u64>,
    /// Per-phase vote/QC times, ordered by QC formation time.
    pub phases: Vec<PhasePoint>,
    /// When the block first committed at any replica.
    pub committed_ns: Option<u64>,
}

impl BlockTimeline {
    /// A timeline is complete when it was proposed, certified in at
    /// least one phase, and committed — only complete timelines enter
    /// the decomposition statistics.
    pub fn is_complete(&self) -> bool {
        self.proposed_ns.is_some() && !self.phases.is_empty() && self.committed_ns.is_some()
    }
}

/// One aggregated latency segment of the decomposition.
#[derive(Clone, Debug)]
pub struct SegmentStat {
    /// Segment label, e.g. `"vote(prepare)"` or `"commitQC"`.
    pub label: String,
    /// Per-block durations of this segment.
    pub hist: Histogram,
}

/// Where one latency segment's wall-clock time went, summed across
/// replicas and complete blocks: the simulated CPU lanes (crypto
/// workers, journal/IO, consensus logic) plus the remainder, which is
/// wire/queueing time no lane accounts for.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaneBreakdown {
    /// Segment label, matching [`Decomposition::segments`].
    pub label: String,
    /// Total wall-clock span of this segment across complete blocks.
    pub window_ns: u64,
    /// CPU charged to the crypto worker lanes inside the window.
    pub crypto_ns: u64,
    /// CPU charged to the journal/IO lane inside the window.
    pub journal_ns: u64,
    /// CPU charged to the consensus lane inside the window.
    pub consensus_ns: u64,
    /// `window_ns` minus all lane charges, clamped at zero — the share
    /// of the segment spent on the wire or queued rather than
    /// computing. Approximate under pipelining: lane charges from
    /// overlapping work on *other* blocks also land in the window, so
    /// treat this as an attribution of cluster time, not a per-block
    /// critical path.
    pub wire_ns: u64,
}

/// A per-committed-block commit-latency decomposition built from a
/// merged trace.
#[derive(Clone, Debug, Default)]
pub struct Decomposition {
    /// All reconstructed block timelines, by height.
    pub blocks: Vec<BlockTimeline>,
    /// Per-step lane charges copied from the trace, in arrival order.
    pub charges: Vec<ChargeEvent>,
}

impl Decomposition {
    /// Reconstructs block timelines from a merged trace.
    ///
    /// Events are processed in trace order (drivers append in clock
    /// order). Per height, the first `Proposed`, per-phase `FirstVote` /
    /// `QcFormed`, and the earliest `Committed` covering the height are
    /// kept; re-proposals after view changes keep their original
    /// propose time, so unhappy-path blocks show up as long segments
    /// rather than disappearing.
    pub fn from_trace(trace: &Trace) -> Self {
        #[derive(Default)]
        struct Builder {
            proposed_ns: Option<u64>,
            first_votes: BTreeMap<Phase, u64>,
            qcs: BTreeMap<Phase, u64>,
            committed_ns: Option<u64>,
        }
        let mut builders: BTreeMap<Height, Builder> = BTreeMap::new();
        let mut committed_up_to = Height(0);
        for ev in &trace.events {
            match &ev.note {
                Note::Proposed { height, .. } => {
                    builders
                        .entry(*height)
                        .or_default()
                        .proposed_ns
                        .get_or_insert(ev.at_ns);
                }
                Note::FirstVote { height, phase, .. } => {
                    builders
                        .entry(*height)
                        .or_default()
                        .first_votes
                        .entry(*phase)
                        .or_insert(ev.at_ns);
                }
                Note::QcFormed { height, phase, .. } => {
                    builders
                        .entry(*height)
                        .or_default()
                        .qcs
                        .entry(*phase)
                        .or_insert(ev.at_ns);
                }
                Note::Committed { height, .. } => {
                    // A commit covers every height up to `height`; only
                    // the first (earliest) commit of a height counts.
                    while committed_up_to < *height {
                        committed_up_to = committed_up_to.next();
                        builders
                            .entry(committed_up_to)
                            .or_default()
                            .committed_ns
                            .get_or_insert(ev.at_ns);
                    }
                }
                _ => {}
            }
        }
        let blocks = builders
            .into_iter()
            .map(|(height, b)| {
                let mut phases: Vec<PhasePoint> = b
                    .qcs
                    .iter()
                    .map(|(&phase, &qc_ns)| PhasePoint {
                        phase,
                        first_vote_ns: b.first_votes.get(&phase).copied(),
                        qc_ns,
                    })
                    .collect();
                phases.sort_by_key(|p| p.qc_ns);
                BlockTimeline {
                    height,
                    proposed_ns: b.proposed_ns,
                    phases,
                    committed_ns: b.committed_ns,
                }
            })
            .collect();
        Decomposition {
            blocks,
            charges: trace.charges.clone(),
        }
    }

    /// Complete timelines only (see [`BlockTimeline::is_complete`]).
    pub fn complete_blocks(&self) -> impl Iterator<Item = &BlockTimeline> {
        self.blocks.iter().filter(|b| b.is_complete())
    }

    /// The modal number of distinct QC phases per complete block — the
    /// protocol's measured phase count (2 for Marlin's happy path, 3
    /// for HotStuff). Returns 0 when no block completed.
    pub fn phase_count(&self) -> usize {
        let mut freq: BTreeMap<usize, usize> = BTreeMap::new();
        for b in self.complete_blocks() {
            *freq.entry(b.phases.len()).or_default() += 1;
        }
        freq.into_iter()
            .max_by_key(|&(count, n)| (n, count))
            .map(|(count, _)| count)
            .unwrap_or(0)
    }

    /// End-to-end commit latency (propose → first commit) over complete
    /// blocks.
    pub fn commit_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for b in self.complete_blocks() {
            if let (Some(p), Some(c)) = (b.proposed_ns, b.committed_ns) {
                h.record(c.saturating_sub(p));
            }
        }
        h
    }

    /// Aggregates the per-block segment durations, labeled by segment
    /// end point: `vote(<phase>)` (propose/previous QC → first vote),
    /// `<phase>QC` (first vote → QC), and `deliver` (last QC → commit).
    /// Labels appear in first-encounter order, which for a steady
    /// protocol is its phase order.
    pub fn segments(&self) -> Vec<SegmentStat> {
        let mut order: Vec<String> = Vec::new();
        let mut by_label: BTreeMap<String, Histogram> = BTreeMap::new();
        for b in self.complete_blocks() {
            for (label, start, end) in segment_windows(b) {
                if !by_label.contains_key(&label) {
                    order.push(label.clone());
                }
                by_label.entry(label).or_default().record(end - start);
            }
        }
        order
            .into_iter()
            .map(|label| {
                let hist = by_label.remove(&label).expect("label recorded");
                SegmentStat { label, hist }
            })
            .collect()
    }

    /// Attributes cluster CPU time to each latency segment by lane.
    ///
    /// For every complete block's segment window `(start, end]`, sums
    /// the [`ChargeEvent`]s (across all replicas) whose timestamp falls
    /// inside the window; charges stamped at the exact instant an event
    /// fires belong to the segment that event closes — e.g. the batch
    /// verification that forms a QC lands in that phase's `…QC`
    /// segment. `wire_ns` is the unclaimed remainder, clamped at zero.
    /// Labels appear in the same first-encounter order as
    /// [`Decomposition::segments`].
    pub fn lane_breakdown(&self) -> Vec<LaneBreakdown> {
        // Charges sorted by time once, with running per-lane sums: a
        // window's charges are then the difference of two prefix sums
        // found by binary search, not a scan of every charge.
        let mut charges: Vec<&ChargeEvent> = self.charges.iter().collect();
        charges.sort_unstable_by_key(|c| c.at_ns);
        let mut prefix = vec![[0u64; 3]];
        for c in &charges {
            let [crypto, journal, consensus] = prefix[prefix.len() - 1];
            prefix.push([
                crypto + c.crypto_ns,
                journal + c.journal_ns,
                consensus + c.consensus_ns,
            ]);
        }
        // Lane totals over every charge stamped at or before `t`.
        let upto = |t: u64| prefix[charges.partition_point(|c| c.at_ns <= t)];
        self.lanes_per_segment(|start, end| {
            let (lo, hi) = (upto(start), upto(end));
            [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]]
        })
    }

    /// Sums, per segment label, each complete block's window `(start,
    /// end]` and its `[crypto, journal, consensus]` `charged(start, end)`.
    fn lanes_per_segment(&self, charged: impl Fn(u64, u64) -> [u64; 3]) -> Vec<LaneBreakdown> {
        let mut order: Vec<String> = Vec::new();
        let mut by_label: BTreeMap<String, LaneBreakdown> = BTreeMap::new();
        for b in self.complete_blocks() {
            for (label, start, end) in segment_windows(b) {
                if !by_label.contains_key(&label) {
                    order.push(label.clone());
                }
                let entry = by_label.entry(label.clone()).or_default();
                entry.label = label;
                entry.window_ns += end - start;
                let [crypto, journal, consensus] = charged(start, end);
                entry.crypto_ns += crypto;
                entry.journal_ns += journal;
                entry.consensus_ns += consensus;
            }
        }
        order
            .into_iter()
            .map(|label| {
                let mut lb = by_label.remove(&label).expect("label recorded");
                lb.wire_ns = lb
                    .window_ns
                    .saturating_sub(lb.crypto_ns)
                    .saturating_sub(lb.journal_ns)
                    .saturating_sub(lb.consensus_ns);
                lb
            })
            .collect()
    }

    /// Renders the decomposition as a JSON object (machine-readable
    /// report for `--telemetry` artifacts).
    pub fn to_json(&self) -> String {
        let commit = self.commit_latency();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"blocks\":{},\"complete_blocks\":{},\"phase_count\":{},\"commit_latency_ns\":{}",
            self.blocks.len(),
            self.complete_blocks().count(),
            self.phase_count(),
            hist_json(&commit),
        );
        out.push_str(",\"segments\":[");
        for (i, seg) in self.segments().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"segment\":{},\"stats\":{}}}",
                json_str(&seg.label),
                hist_json(&seg.hist)
            );
        }
        out.push_str("],\"lanes\":[");
        for (i, lb) in self.lane_breakdown().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"segment\":{},\"window_ns\":{},\"crypto_ns\":{},\"journal_ns\":{},\
                 \"consensus_ns\":{},\"wire_ns\":{}}}",
                json_str(&lb.label),
                lb.window_ns,
                lb.crypto_ns,
                lb.journal_ns,
                lb.consensus_ns,
                lb.wire_ns,
            );
        }
        out.push_str("]}");
        out
    }
}

/// The cursor walk shared by [`Decomposition::segments`] and
/// [`Decomposition::lane_breakdown`]: yields `(label, start, end)`
/// windows covering propose → …votes/QCs… → commit. Out-of-order
/// points (e.g. a first vote recorded after its QC under reordering)
/// are skipped, exactly as the original segment aggregation did.
fn segment_windows(b: &BlockTimeline) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let Some(mut cursor) = b.proposed_ns else {
        return out;
    };
    for p in &b.phases {
        if let Some(fv) = p.first_vote_ns {
            if fv >= cursor {
                out.push((format!("vote({})", phase_label(p.phase)), cursor, fv));
                cursor = fv;
            }
        }
        if p.qc_ns >= cursor {
            out.push((format!("{}QC", phase_label(p.phase)), cursor, p.qc_ns));
            cursor = p.qc_ns;
        }
    }
    if let Some(c) = b.committed_ns {
        if c >= cursor {
            out.push(("deliver".to_string(), cursor, c));
        }
    }
    out
}

fn hist_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"max_ns\":{}}}",
        h.count(),
        h.mean_ns(),
        h.quantile_ns(0.50),
        h.quantile_ns(0.95),
        h.max_ns(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TelemetrySink, Trace};
    use marlin_types::{ReplicaId, View};

    /// Builds a synthetic two-phase (Marlin-shaped) trace: propose at
    /// t0, prepare vote/QC, commit vote/QC, then delivery.
    fn two_phase_trace() -> Trace {
        let mut t = Trace::new();
        let leader = ReplicaId(1);
        let v = View(1);
        let h = Height(1);
        t.note(
            100,
            leader,
            &Note::Proposed {
                view: v,
                height: h,
                phase: Phase::Prepare,
            },
        );
        t.note(
            150,
            leader,
            &Note::FirstVote {
                view: v,
                height: h,
                phase: Phase::Prepare,
            },
        );
        t.note(
            300,
            leader,
            &Note::QcFormed {
                phase: Phase::Prepare,
                view: v,
                height: h,
            },
        );
        t.note(
            340,
            leader,
            &Note::FirstVote {
                view: v,
                height: h,
                phase: Phase::Commit,
            },
        );
        t.note(
            500,
            leader,
            &Note::QcFormed {
                phase: Phase::Commit,
                view: v,
                height: h,
            },
        );
        t.note(620, ReplicaId(0), &Note::Committed { height: h, txs: 4 });
        t.note(900, ReplicaId(2), &Note::Committed { height: h, txs: 4 });
        t
    }

    #[test]
    fn reconstructs_two_phase_timeline() {
        let d = Decomposition::from_trace(&two_phase_trace());
        assert_eq!(d.blocks.len(), 1);
        let b = &d.blocks[0];
        assert!(b.is_complete());
        assert_eq!(b.proposed_ns, Some(100));
        assert_eq!(b.phases.len(), 2);
        assert_eq!(b.phases[0].phase, Phase::Prepare);
        assert_eq!(b.phases[1].phase, Phase::Commit);
        // The first commit (any replica) wins.
        assert_eq!(b.committed_ns, Some(620));
        assert_eq!(d.phase_count(), 2);
        assert_eq!(d.commit_latency().mean_ns(), 520);
    }

    #[test]
    fn segments_cover_the_full_latency() {
        let d = Decomposition::from_trace(&two_phase_trace());
        let segs = d.segments();
        let labels: Vec<&str> = segs.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "vote(prepare)",
                "prepareQC",
                "vote(commit)",
                "commitQC",
                "deliver"
            ]
        );
        let total: u128 = segs.iter().map(|s| s.hist.sum_ns()).sum();
        assert_eq!(total, 520); // segments sum to commit latency
    }

    #[test]
    fn commit_covers_all_lower_heights() {
        let mut t = two_phase_trace();
        // A later batch commit of heights 2..=3 at t=2000.
        t.note(
            1_000,
            ReplicaId(1),
            &Note::Proposed {
                view: View(1),
                height: Height(3),
                phase: Phase::Prepare,
            },
        );
        t.note(
            1_500,
            ReplicaId(1),
            &Note::QcFormed {
                phase: Phase::Commit,
                view: View(1),
                height: Height(3),
            },
        );
        t.note(
            2_000,
            ReplicaId(0),
            &Note::Committed {
                height: Height(3),
                txs: 0,
            },
        );
        let d = Decomposition::from_trace(&t);
        let h2 = d.blocks.iter().find(|b| b.height == Height(2)).unwrap();
        assert_eq!(h2.committed_ns, Some(2_000));
        assert!(!h2.is_complete()); // never proposed in the trace
        let h3 = d.blocks.iter().find(|b| b.height == Height(3)).unwrap();
        assert!(h3.is_complete());
    }

    #[test]
    fn json_report_carries_phase_count() {
        let json = Decomposition::from_trace(&two_phase_trace()).to_json();
        assert!(json.contains("\"phase_count\":2"), "{json}");
        assert!(json.contains("\"segment\":\"prepareQC\""), "{json}");
    }

    /// The two-phase trace plus lane charges: verification work landing
    /// exactly when each QC forms, journal work mid-deliver, and one
    /// charge before the propose (outside every window).
    fn charged_trace() -> Trace {
        let mut t = two_phase_trace();
        // Before propose: belongs to no segment.
        t.step_charged(50, ReplicaId(1), 999, 999, 999);
        // Batch verification that formed the prepare QC at t=300.
        t.step_charged(300, ReplicaId(1), 80, 0, 5);
        // Verification + combine forming the commit QC at t=500.
        t.step_charged(500, ReplicaId(1), 60, 0, 0);
        // Journal append during delivery (window (500, 620]).
        t.step_charged(610, ReplicaId(0), 0, 40, 0);
        t
    }

    #[test]
    fn lane_breakdown_attributes_charges_to_segment_windows() {
        let d = Decomposition::from_trace(&charged_trace());
        let lanes = d.lane_breakdown();
        let labels: Vec<&str> = lanes.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "vote(prepare)",
                "prepareQC",
                "vote(commit)",
                "commitQC",
                "deliver"
            ]
        );
        let get = |label: &str| lanes.iter().find(|l| l.label == label).unwrap();

        // The pre-propose charge (t=50) lands nowhere.
        let total_crypto: u64 = lanes.iter().map(|l| l.crypto_ns).sum();
        assert_eq!(total_crypto, 80 + 60);

        // A charge at the exact QC instant belongs to the QC segment.
        let prep = get("prepareQC");
        assert_eq!((prep.crypto_ns, prep.consensus_ns), (80, 5));
        assert_eq!(prep.window_ns, 150); // 150 → 300
        assert_eq!(prep.wire_ns, 150 - 80 - 5);

        let commit = get("commitQC");
        assert_eq!(commit.crypto_ns, 60);

        let deliver = get("deliver");
        assert_eq!(deliver.journal_ns, 40);
        assert_eq!(deliver.window_ns, 120); // 500 → 620
        assert_eq!(deliver.wire_ns, 120 - 40);

        // Unclaimed windows are pure wire time.
        let vp = get("vote(prepare)");
        assert_eq!((vp.crypto_ns, vp.journal_ns, vp.consensus_ns), (0, 0, 0));
        assert_eq!(vp.wire_ns, vp.window_ns);
    }

    #[test]
    fn lane_breakdown_clamps_oversubscribed_windows() {
        let mut t = two_phase_trace();
        // More CPU than the window holds (parallel lanes / other-block
        // pipelining): wire clamps to zero instead of underflowing.
        t.step_charged(300, ReplicaId(0), 100_000, 0, 0);
        let d = Decomposition::from_trace(&t);
        let prep = d
            .lane_breakdown()
            .into_iter()
            .find(|l| l.label == "prepareQC")
            .unwrap();
        assert_eq!(prep.crypto_ns, 100_000);
        assert_eq!(prep.wire_ns, 0);
    }

    /// The blocks × charges loop `lane_breakdown` replaced — every
    /// window scans every charge — kept as the reference it must match.
    fn quadratic_lane_breakdown(d: &Decomposition) -> Vec<LaneBreakdown> {
        d.lanes_per_segment(|start, end| {
            let mut sum = [0; 3];
            for c in &d.charges {
                if c.at_ns > start && c.at_ns <= end {
                    sum[0] += c.crypto_ns;
                    sum[1] += c.journal_ns;
                    sum[2] += c.consensus_ns;
                }
            }
            sum
        })
    }

    #[test]
    fn lane_breakdown_matches_the_quadratic_reference() {
        // 200 pipelined blocks (overlapping windows, empty segments,
        // skipped out-of-order votes, some uncommitted); 5,000 unsorted
        // charges, a third on window boundaries, the rest on a coarse
        // clock that makes equal timestamps common.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut d = Decomposition::default();
        for h in 0..200u64 {
            let proposed = h * 50 + next(40);
            let mut t = proposed;
            let mut phases = Vec::new();
            let ladder = [Phase::Prepare, Phase::PreCommit, Phase::Commit];
            for &phase in &ladder[..2 + next(2) as usize] {
                let first_vote_ns = match next(6) {
                    0 => None,
                    1 => Some(t.saturating_sub(3)),
                    _ => Some(t + next(30)),
                };
                t = t.max(first_vote_ns.unwrap_or(t)) + next(60);
                phases.push(PhasePoint {
                    phase,
                    first_vote_ns,
                    qc_ns: t,
                });
            }
            d.blocks.push(BlockTimeline {
                height: Height(h),
                proposed_ns: Some(proposed),
                phases,
                committed_ns: (next(10) > 0).then(|| t + next(80)),
            });
        }
        let boundaries: Vec<u64> = d
            .blocks
            .iter()
            .flat_map(segment_windows)
            .flat_map(|(_, start, end)| [start, end])
            .collect();
        for i in 0..5_000u32 {
            let at_ns = if i % 3 == 0 {
                boundaries[next(boundaries.len() as u64) as usize]
            } else {
                next(2_000) * 5
            };
            d.charges.push(ChargeEvent {
                at_ns,
                replica: ReplicaId(i % 4),
                crypto_ns: next(1_000),
                journal_ns: next(100),
                consensus_ns: next(500),
            });
        }
        assert!(d.complete_blocks().count() > 150);
        assert_eq!(d.lane_breakdown(), quadratic_lane_breakdown(&d));
    }

    #[test]
    fn json_report_carries_lane_breakdown() {
        let json = Decomposition::from_trace(&charged_trace()).to_json();
        assert!(json.contains("\"lanes\":["), "{json}");
        assert!(
            json.contains(
                "\"segment\":\"deliver\",\"window_ns\":120,\"crypto_ns\":0,\"journal_ns\":40"
            ),
            "{json}"
        );
    }
}
