//! The load generator: a closed loop that commits a fixed amount of
//! work, an open loop on an absolute schedule, and the bookkeeping that
//! turns commit instants into latency samples and an exactly-once
//! verdict. Everything here runs on the caller's thread against a
//! [`Sut`]; nothing spawns.

use crate::host::Rng;
use crate::sut::Sut;
use std::collections::HashMap;

/// What a closed loop measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Closed {
    pub elapsed_ns: u64,
    /// Nanoseconds each successive quarter of the work took.
    pub quarter_ns: [u64; 4],
}

/// Commits `total` transactions keeping at most `window` outstanding,
/// `chunk` per submission.
///
/// # Errors
///
/// Gives up, rather than wait for ever, when the view changes (work
/// submitted to the old leader is stranded in its mempool) or nothing
/// commits for [`STALL_NS`].
pub fn closed_loop<S: Sut>(
    sut: &mut S,
    total: u64,
    window: u64,
    chunk: usize,
) -> Result<Closed, &'static str> {
    let base = sut.log().committed_txs();
    let view0 = sut.max_view();
    let start = sut.now_ns();
    let mut submitted = 0u64;
    // Instants the committed count crossed each quarter of the work.
    let mut crossed = [0u64; 4];
    let mut next_quarter = 0;
    let mut progress = (0u64, start);
    loop {
        let committed = sut.log().committed_txs() - base;
        let now = sut.now_ns();
        while next_quarter < 4 && committed >= total * (next_quarter as u64 + 1) / 4 {
            crossed[next_quarter] = now;
            next_quarter += 1;
        }
        if committed >= total {
            break;
        }
        if committed != progress.0 {
            progress = (committed, now);
        } else if now - progress.1 > STALL_NS {
            return Err("closed loop: nothing committed for 3 s");
        }
        if sut.max_view() != view0 {
            return Err("closed loop: view changed with no fault injected");
        }
        while submitted < total && submitted - committed < window {
            let count = chunk.min((total - submitted) as usize);
            sut.submit(count);
            submitted += count as u64;
        }
        sut.wait_until(now + 1_000_000);
    }
    let mut quarter_ns = [0u64; 4];
    let mut from = start;
    for (slot, at) in quarter_ns.iter_mut().zip(crossed) {
        *slot = (at - from).max(1);
        from = at;
    }
    Ok(Closed {
        elapsed_ns: crossed[3] - start,
        quarter_ns,
    })
}

/// Goodput over each successive slice of a closed loop's work, ktx/s.
///
/// `blocks` are the (commit instant, size) of the blocks the loop
/// committed, in order, and `start_ns` the instant it began. A slice
/// ends with the block that brings it to `slice_txs` transactions and
/// is timed between commit instants, so no polling delay enters; what
/// is left over at the end is dropped.
pub fn slice_rates(blocks: &[(u64, u32)], start_ns: u64, slice_txs: u64) -> Vec<f64> {
    let mut rates = Vec::new();
    let (mut from, mut txs) = (start_ns, 0u64);
    for &(at, count) in blocks {
        txs += u64::from(count);
        if txs >= slice_txs && at > from {
            rates.push(txs as f64 / (at - from) as f64 * 1e6);
            (from, txs) = (at, 0);
        }
    }
    rates
}

/// Commits `rounds` batches of `chunk` transactions one at a time: the
/// next is submitted when the previous has committed at replica 0.
/// Returns each batch's submit → commit time in ns.
///
/// This is the latency of one full block through both phases with
/// nothing else in flight and no idle gap before it, so the caches it
/// runs in are its own; an open loop's samples each follow an idle
/// gap, and on a shared host measure what the neighbours left in the
/// cache as much as the program.
///
/// # Errors
///
/// As [`closed_loop`]: a view change or 3 s without a commit.
pub fn serial_rounds<S: Sut>(
    sut: &mut S,
    rounds: usize,
    chunk: usize,
) -> Result<Vec<u64>, &'static str> {
    let view0 = sut.max_view();
    let mut latencies = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let submitted_at = sut.now_ns();
        let first = sut.submit(chunk);
        let last = first + chunk as u64 - 1;
        let committed_at = loop {
            if let Some(at) = sut.log().commit_ns(last) {
                break at;
            }
            let now = sut.now_ns();
            if now - submitted_at > STALL_NS {
                return Err("serial rounds: nothing committed for 3 s");
            }
            if sut.max_view() != view0 {
                return Err("serial rounds: view changed with no fault injected");
            }
            sut.wait_until(now + 1_000_000);
        };
        latencies.push(committed_at.saturating_sub(submitted_at));
    }
    Ok(latencies)
}

/// The median of each successive group of `group` latencies (ns), in
/// ms; a trailing partial group is dropped.
pub fn group_medians_ms(latencies: &[u64], group: usize) -> Vec<f64> {
    latencies
        .chunks_exact(group)
        .map(|g| {
            let mut g = g.to_vec();
            g.sort_unstable();
            crate::stats::percentile_sorted(&g, 0.5) as f64 / 1e6
        })
        .collect()
}

/// How long a closed loop waits without a commit before giving up.
const STALL_NS: u64 = 3_000_000_000;

/// One scheduled burst of an open loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Burst {
    pub due_ns: u64,
    pub count: usize,
}

/// An absolute open-loop schedule: burst `k` of `count` transactions is
/// due at `start + k * period` plus a seeded jitter below half a
/// period, whatever the system does. The mean rate is fixed; the seed
/// only moves arrivals within their slot.
pub fn schedule(
    start_ns: u64,
    period_ns: u64,
    bursts: usize,
    count: usize,
    rng: &mut Rng,
) -> Vec<Burst> {
    (0..bursts as u64)
        .map(|k| Burst {
            due_ns: start_ns + k * period_ns + rng.below(period_ns / 2 + 1),
            count,
        })
        .collect()
}

/// Every logical transaction an open-loop phase owes: the id it was
/// first submitted under, its due instant, and the id of its one
/// retry, if it needed one.
#[derive(Debug, Default)]
pub struct Requests {
    /// (first id, count, due instant) per submitted burst.
    bursts: Vec<(u64, usize, u64)>,
    /// Original id → the id of its one retry.
    retries: HashMap<u64, u64>,
    /// How late each burst was submitted, ns after its due instant.
    pub late_ns: Vec<u64>,
}

/// The verdict over a phase's requests.
#[derive(Debug, Default, PartialEq)]
pub struct Settled {
    /// (due instant, commit instant − due instant) per transaction that
    /// committed exactly once, timed from the *original* due instant
    /// even when the commit came from the retry.
    pub samples: Vec<(u64, u64)>,
    pub attempted: u64,
    /// Committed under neither id.
    pub lost: u64,
    /// Committed under both ids.
    pub duplicated: u64,
}

impl Requests {
    pub fn attempted(&self) -> u64 {
        self.bursts.iter().map(|b| b.1 as u64).sum()
    }

    pub fn retried(&self) -> u64 {
        self.retries.len() as u64
    }

    fn note_burst(&mut self, first_id: u64, count: usize, due_ns: u64, now_ns: u64) {
        self.bursts.push((first_id, count, due_ns));
        self.late_ns.push(now_ns.saturating_sub(due_ns));
    }

    /// Ids due at or before `due_by_ns` that are not yet committed and
    /// not yet retried, oldest first.
    pub fn uncommitted(&self, due_by_ns: u64, committed: impl Fn(u64) -> Option<u64>) -> Vec<u64> {
        self.bursts
            .iter()
            .filter(|b| b.2 <= due_by_ns)
            .flat_map(|&(first, count, _)| first..first + count as u64)
            .filter(|id| committed(*id).is_none() && !self.retries.contains_key(id))
            .collect()
    }

    /// Whether every request has committed, under its own id or its
    /// retry's.
    pub fn all_committed(&self, committed: impl Fn(u64) -> Option<u64>) -> bool {
        self.bursts
            .iter()
            .flat_map(|&(first, count, _)| first..first + count as u64)
            .all(|id| {
                committed(id).is_some()
                    || self
                        .retries
                        .get(&id)
                        .is_some_and(|&r| committed(r).is_some())
            })
    }

    /// Records that `originals[i]` was resubmitted as `first_retry_id + i`.
    pub fn note_retries(&mut self, originals: &[u64], first_retry_id: u64) {
        self.retries
            .extend(originals.iter().zip(first_retry_id..).map(|(&o, r)| (o, r)));
    }

    /// Matches commits to requests by id.
    pub fn settle(&self, committed: impl Fn(u64) -> Option<u64>) -> Settled {
        let mut out = Settled {
            attempted: self.attempted(),
            ..Settled::default()
        };
        for &(first, count, due) in &self.bursts {
            for id in first..first + count as u64 {
                let original = committed(id);
                let retry = self.retries.get(&id).and_then(|&r| committed(r));
                match (original, retry) {
                    (Some(_), Some(_)) => out.duplicated += 1,
                    (Some(at), None) | (None, Some(at)) => {
                        out.samples.push((due, at.saturating_sub(due)));
                    }
                    (None, None) => out.lost += 1,
                }
            }
        }
        out
    }
}

/// A one-shot action due at an instant on the [`Sut`] clock.
pub type TimedEvent<'a, S> = (u64, &'a mut dyn FnMut(&mut S));

/// Runs `bursts` against `sut`: waits for each due instant, submits the
/// burst (at once if already overdue), and records under which ids.
/// `at_ns`/`action` is an optional one-shot event on the same clock
/// (the leader kill), taken between bursts.
pub fn open_loop<S: Sut>(
    sut: &mut S,
    bursts: &[Burst],
    requests: &mut Requests,
    mut event: Option<TimedEvent<'_, S>>,
) {
    for burst in bursts {
        loop {
            let now = sut.now_ns();
            if let Some((at_ns, _)) = &event {
                if now >= *at_ns {
                    let (_, action) = event.take().expect("event present");
                    action(sut);
                    continue;
                }
            }
            if now >= burst.due_ns {
                break;
            }
            let next = match &event {
                Some((at_ns, _)) => burst.due_ns.min(*at_ns),
                None => burst.due_ns,
            };
            sut.wait_until(next);
        }
        let first = sut.submit(burst.count);
        requests.note_burst(first, burst.count, burst.due_ns, sut.now_ns());
    }
}

/// Waits until every request has committed (original or retry) or
/// `deadline_ns` passes. Returns whether all committed.
///
/// With `retry_after_ns`, a request still uncommitted that long after
/// its due instant is resubmitted, once, `chunk` transactions at a
/// time: the client's answer to a leader that died with the request,
/// or to `submit` having handed it to a follower while no leader was
/// alive.
pub fn drain<S: Sut>(
    sut: &mut S,
    requests: &mut Requests,
    retry_after_ns: Option<u64>,
    chunk: usize,
    deadline_ns: u64,
) -> bool {
    loop {
        let now = sut.now_ns();
        if let Some(after) = retry_after_ns {
            let overdue =
                requests.uncommitted(now.saturating_sub(after), |id| sut.log().commit_ns(id));
            for part in overdue.chunks(chunk.max(1)) {
                let first = sut.submit(part.len());
                requests.note_retries(part, first);
            }
        }
        if requests.all_committed(|id| sut.log().commit_ns(id)) {
            return true;
        }
        if now >= deadline_ns {
            return false;
        }
        sut.wait_until((now + POLL_NS).min(deadline_ns));
    }
}

/// How often [`drain`] looks again. Each look walks every request, on
/// the CPU the cluster runs on, so not too often.
const POLL_NS: u64 = 10_000_000;

/// Longest gap between consecutive commit instants that lie in
/// `[from_ns, to_ns]`, in ns; `None` with fewer than two commits.
pub fn longest_commit_gap(instants: &[u64], from_ns: u64, to_ns: u64) -> Option<u64> {
    let inside: Vec<u64> = instants
        .iter()
        .copied()
        .filter(|&t| t >= from_ns && t <= to_ns)
        .collect();
    inside.windows(2).map(|w| w[1] - w[0]).max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::CommitLog;

    /// A cluster on a fake clock: `wait_until` jumps the clock, every
    /// submitted transaction commits `service_ns` later (and shows in
    /// the log once the clock gets there), and `stall` makes one
    /// `wait_until` overshoot, like a descheduled generator.
    struct FakeSut {
        now: u64,
        next_id: u64,
        service_ns: u64,
        stall: Option<(u64, u64)>,
        submitted: Vec<(u64, usize, u64)>,
        /// (commit instant, first id, one past the last id).
        in_flight: Vec<(u64, u64, u64)>,
        log: CommitLog,
        killed: bool,
    }

    impl FakeSut {
        fn new(service_ns: u64) -> Self {
            FakeSut {
                now: 0,
                next_id: 0,
                service_ns,
                stall: None,
                submitted: Vec::new(),
                in_flight: Vec::new(),
                log: CommitLog::new(10_000),
                killed: false,
            }
        }

        fn commit_due(&mut self) {
            let now = self.now;
            let log = &self.log;
            self.in_flight.retain(|&(at, first, end)| {
                if at <= now {
                    log.record_block(at, first..end);
                }
                at > now
            });
        }
    }

    impl Sut for FakeSut {
        fn now_ns(&self) -> u64 {
            self.now
        }
        fn submit(&mut self, count: usize) -> u64 {
            let first = self.next_id;
            self.next_id += count as u64;
            self.submitted.push((first, count, self.now));
            if !self.killed {
                self.in_flight
                    .push((self.now + self.service_ns, first, self.next_id));
                self.commit_due();
            }
            first
        }
        fn wait_until(&mut self, until_ns: u64) {
            self.now = match self.stall.take() {
                Some((at, len)) if until_ns >= at => until_ns + len,
                other => {
                    self.stall = other;
                    until_ns
                }
            };
            self.commit_due();
        }
        fn log(&self) -> &CommitLog {
            &self.log
        }
        fn max_view(&self) -> u64 {
            1
        }
        fn kill_leader(&mut self) -> Option<usize> {
            self.killed = true;
            Some(1)
        }
        fn transport_errors(&self) -> u64 {
            0
        }
    }

    fn fixed(start: u64, period: u64, n: usize, count: usize) -> Vec<Burst> {
        (0..n as u64)
            .map(|k| Burst {
                due_ns: start + k * period,
                count,
            })
            .collect()
    }

    #[test]
    fn schedule_is_absolute_seeded_and_keeps_its_rate() {
        let a = schedule(1_000, 2_000, 50, 10, &mut Rng::new(1));
        let b = schedule(1_000, 2_000, 50, 10, &mut Rng::new(1));
        let c = schedule(1_000, 2_000, 50, 10, &mut Rng::new(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        for (k, burst) in a.iter().enumerate() {
            let slot = 1_000 + k as u64 * 2_000;
            assert!(burst.due_ns >= slot && burst.due_ns <= slot + 1_000);
            assert_eq!(burst.count, 10);
        }
    }

    #[test]
    fn on_time_generator_submits_at_the_due_instant() {
        let mut sut = FakeSut::new(700);
        let mut req = Requests::default();
        open_loop(&mut sut, &fixed(100, 1_000, 5, 3), &mut req, None);
        let at: Vec<u64> = sut.submitted.iter().map(|s| s.2).collect();
        assert_eq!(at, vec![100, 1_100, 2_100, 3_100, 4_100]);
        assert!(req.late_ns.iter().all(|&l| l == 0));
        assert!(drain(&mut sut, &mut req, None, 1, 10_000));
        let settled = req.settle(|id| sut.log.commit_ns(id));
        assert_eq!(settled.attempted, 15);
        assert_eq!(settled.samples.len(), 15);
        assert!(settled.samples.iter().all(|&(_, lat)| lat == 700));
    }

    #[test]
    fn a_stalled_generator_catches_up_at_once_and_times_from_the_due_instant() {
        let mut sut = FakeSut::new(700);
        // The wait for the burst due at 2 100 returns 3 500 ns late.
        sut.stall = Some((2_100, 3_500));
        let mut req = Requests::default();
        open_loop(&mut sut, &fixed(100, 1_000, 6, 1), &mut req, None);
        let at: Vec<u64> = sut.submitted.iter().map(|s| s.2).collect();
        // Bursts due at 2 100, 3 100, 4 100, 5 100 all go out at 5 600.
        assert_eq!(at, vec![100, 1_100, 5_600, 5_600, 5_600, 5_600]);
        assert_eq!(req.late_ns, vec![0, 0, 3_500, 2_500, 1_500, 500]);
        assert!(drain(&mut sut, &mut req, None, 1, 10_000));
        let settled = req.settle(|id| sut.log.commit_ns(id));
        let lat: Vec<u64> = settled.samples.iter().map(|s| s.1).collect();
        assert_eq!(lat, vec![700, 700, 4_200, 3_200, 2_200, 1_200]);
    }

    #[test]
    fn the_event_fires_once_between_bursts() {
        let mut sut = FakeSut::new(10);
        let mut req = Requests::default();
        let mut fired = Vec::new();
        let mut kill = |s: &mut FakeSut| {
            fired.push(s.now_ns());
            s.kill_leader();
        };
        open_loop(
            &mut sut,
            &fixed(0, 1_000, 4, 2),
            &mut req,
            Some((1_500, &mut kill)),
        );
        assert_eq!(fired, vec![1_500]);
        // Bursts at 0 and 1 000 committed; those at 2 000 and 3 000
        // went to a dead leader and never will.
        assert!(!drain(&mut sut, &mut req, None, 1, 10_000));
        let settled = req.settle(|id| sut.log.commit_ns(id));
        assert_eq!((settled.samples.len(), settled.lost), (4, 4));
    }

    #[test]
    fn drain_resubmits_what_a_dead_leader_took_once_it_is_old_enough() {
        let mut sut = FakeSut::new(10);
        let mut req = Requests::default();
        let mut kill = |s: &mut FakeSut| {
            s.kill_leader();
        };
        open_loop(
            &mut sut,
            &fixed(0, 1_000, 4, 2),
            &mut req,
            Some((1_500, &mut kill)),
        );
        // A new leader is up; requests older than 50 ms get one retry.
        sut.killed = false;
        assert!(drain(&mut sut, &mut req, Some(50_000_000), 3, 200_000_000));
        assert_eq!(req.retried(), 4);
        let settled = req.settle(|id| sut.log.commit_ns(id));
        assert_eq!(
            (settled.samples.len(), settled.lost, settled.duplicated),
            (8, 0, 0)
        );
        // The retried ones are timed from their original due instants.
        assert!(settled.samples[4..]
            .iter()
            .all(|&(due, lat)| due + lat >= 50_000_000));
    }

    #[test]
    fn retry_bookkeeping_counts_each_request_once() {
        let mut req = Requests::default();
        req.note_burst(0, 4, 1_000, 1_000); // ids 0..4 due at 1 000
        let mut commits = HashMap::new();
        commits.insert(0u64, 1_500u64); // id 0 committed in time
        let lookup = |c: &HashMap<u64, u64>, id: u64| c.get(&id).copied();

        req.note_burst(4, 1, 5_000, 5_000); // id 4, due later, still in flight
                                            // Only requests older than the cut-off are retried.
        let pending = req.uncommitted(4_000, |id| lookup(&commits, id));
        assert_eq!(pending, vec![1, 2, 3]);
        req.note_retries(&pending, 100); // resubmitted as 100, 101, 102
        assert_eq!(req.retried(), 3);
        // A second pass must not retry them again.
        assert!(req.uncommitted(4_000, |id| lookup(&commits, id)).is_empty());
        commits.insert(4, 5_600);

        commits.insert(100, 9_000); // id 1 commits through its retry
        commits.insert(2, 8_000); // id 2 commits late under its own id…
        commits.insert(101, 9_500); // …and again through its retry
        let settled = req.settle(|id| lookup(&commits, id));
        assert_eq!(settled.attempted, 5);
        assert_eq!(settled.duplicated, 1); // id 2
        assert_eq!(settled.lost, 1); // id 3
                                     // Retried id 1 is timed from the original due instant.
        assert_eq!(
            settled.samples,
            vec![(1_000, 500), (1_000, 8_000), (5_000, 600)]
        );
    }

    #[test]
    fn closed_loop_commits_exactly_the_fixed_work() {
        let mut sut = FakeSut::new(0);
        let closed = closed_loop(&mut sut, 1_000, 100, 40).unwrap();
        assert_eq!(sut.log.committed_txs(), 1_000);
        assert_eq!(sut.next_id, 1_000);
        assert_eq!(closed.quarter_ns.iter().sum::<u64>(), closed.elapsed_ns);
        assert!(closed.quarter_ns.iter().all(|&q| q > 0));
    }

    #[test]
    fn serial_rounds_keep_one_batch_in_flight() {
        let mut sut = FakeSut::new(700);
        let lat = serial_rounds(&mut sut, 5, 40).unwrap();
        assert_eq!(lat, vec![700; 5]);
        // Each batch went out only once the one before had committed.
        let at: Vec<u64> = sut.submitted.iter().map(|s| s.2).collect();
        assert!(at.windows(2).all(|w| w[1] >= w[0] + 700));
        assert_eq!(sut.log.committed_txs(), 200);
    }

    #[test]
    fn slices_are_timed_between_commit_instants() {
        // 400-transaction blocks every 2 ms from 1 ms on: 200 ktx/s.
        let blocks: Vec<(u64, u32)> = (0..10).map(|k| (1_000_000 + k * 2_000_000, 400)).collect();
        // The first slice also pays the 1 ms before the first commit.
        let rates = slice_rates(&blocks, 0, 800);
        assert_eq!(rates.len(), 5);
        assert!((rates[0] - 800.0 / 3.0).abs() < 1e-9);
        assert!(rates[1..].iter().all(|r| (r - 200.0).abs() < 1e-9));
        // Five blocks do not fill a third slice of 800: dropped.
        assert_eq!(slice_rates(&blocks[..5], 0, 800).len(), 2);
    }

    #[test]
    fn group_medians_drop_the_partial_group() {
        let lat = [
            3_000_000, 1_000_000, 2_000_000, 9_000_000, 9_000_000, 9_000_000, 5_000_000,
        ];
        assert_eq!(group_medians_ms(&lat, 3), vec![2.0, 9.0]);
    }

    #[test]
    fn longest_gap_only_looks_inside_the_window() {
        let t = [10, 20, 500, 510, 900, 2_000];
        assert_eq!(longest_commit_gap(&t, 0, 1_000), Some(480));
        assert_eq!(longest_commit_gap(&t, 505, 3_000), Some(1_100));
        assert_eq!(longest_commit_gap(&t, 600, 800), None);
    }
}
