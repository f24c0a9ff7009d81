//! Hostile-network fault model.
//!
//! The base [`Network`](crate::Network) is deliberately well-behaved:
//! reliable, FIFO, loss-free. The paper's evaluation only ever ran on such
//! a network, yet partition tolerance is exactly where hierarchical
//! checkpointing should earn its keep. This module layers adversarial
//! behaviour *on top of* the base model without touching its timing or
//! accounting:
//!
//! * **cluster partitions with scripted heals** — inter-cluster messages
//!   crossing an active cut are held in the WAN and arrive just after the
//!   heal, in send order; a cut can be *asymmetric*
//!   ([`PartitionSpec::oneway`]): A→B severed while B→A flows;
//! * **packet loss** — an inter-cluster message simply vanishes with
//!   probability `p`. Loss breaks the exactly-once transport
//!   the protocol engine assumes, so a simulated federation whose spec
//!   has `loss > 0` always runs the host-level reliability sub-layer
//!   (`hc3i_core::xport`):
//!   sender-side retransmission with exponential backoff plus
//!   receiver-side dedup restore exactly-once delivery *despite* loss —
//!   every retransmitted copy re-enters this post-processor and is drawn
//!   against loss independently;
//! * **message duplication** — a second copy of an inter-cluster message
//!   arrives a bounded delay after the first (the network charges nothing
//!   for the ghost copy, so traffic accounting is unchanged);
//! * **bounded reordering** — an inter-cluster message may overtake or be
//!   overtaken within a jitter bound (the SAN inside a cluster stays FIFO:
//!   the protocol's intra-cluster ordering is part of its machine model);
//! * **asymmetric per-cluster-pair latency skew** — each *directed* cluster
//!   pair can carry an extra base + jitter delay.
//!
//! The pipeline order is skew → reorder → loss → partition hold → FIFO
//! clamp → duplication. Loss and partition processing deliberately run
//! *after* the reorder reschedule: a reorder jitter can push an arrival
//! into a partition window that opens later, and the hold must still
//! catch it (messages never sneak through an active cut, and a message
//! held by a cut drains in send order even if it was reordered first).
//!
//! Every random decision is drawn from a per-*directed-cluster-pair*
//! SplitMix64 stream, derived from the [`HostileSpec`] seed and the pair
//! (see [`HostileNet::pair_seed`]). Runs remain a pure function of their
//! configuration, a spec with all features disabled draws nothing — and,
//! because a pair's draws depend only on that pair's own message order
//! (never on how traffic of *other* pairs interleaves globally), hostile
//! outcomes are independent of dispatch order: reordering same-instant
//! events of different clusters cannot move a single draw.

use crate::network::InFlight;
use hc3i_types::{ClusterId, FastHashMap, NodeId, SimDuration, SimTime};

/// SplitMix64 generator ([`desim::splitmix64`]) with a state of its own, so
/// the fault model's draws cannot perturb any other stream of a run.
#[derive(Debug, Clone)]
pub struct Mix64 {
    state: u64,
}

impl Mix64 {
    /// Seed the generator.
    pub fn new(seed: u64) -> Self {
        Mix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        desim::splitmix64(&mut self.state)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform duration in `[0, max)`; zero for a zero bound.
    pub(crate) fn jitter(&mut self, max: SimDuration) -> SimDuration {
        if max.nanos() == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.next_u64() % max.nanos())
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }
}

/// Extra one-way delay for a directed cluster pair: a fixed base plus a
/// uniform jitter in `[0, jitter)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyDist {
    /// Deterministic extra delay added to every message of the pair.
    pub base: SimDuration,
    /// Upper bound of the uniform random component.
    pub jitter: SimDuration,
}

impl LatencyDist {
    fn sample(&self, rng: &mut Mix64) -> SimDuration {
        self.base.saturating_add(rng.jitter(self.jitter))
    }
}

/// A scripted cluster partition: from `at` until `until`, the clusters in
/// `group` cannot exchange messages with the clusters outside it.
///
/// Messages crossing the cut while it is active are *held*, not dropped —
/// the model is a WAN outage with retransmission, so held messages arrive
/// just after the heal, still in per-channel send order.
///
/// A `oneway` cut is asymmetric: only traffic *from* the `group` side *to*
/// the outside is severed; the reverse direction flows normally. This is
/// the classic half-open WAN failure (A's packets to B blackholed while
/// B→A still delivers) that a symmetric model cannot express.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Cut activation time.
    pub at: SimTime,
    /// Heal time (exclusive: messages flow again from here on).
    pub until: SimTime,
    /// Clusters on one side of the cut; every other cluster is on the
    /// other side.
    pub group: Vec<u16>,
    /// Asymmetric cut: only `group` → outside is severed; outside →
    /// `group` traffic flows.
    pub oneway: bool,
}

impl PartitionSpec {
    /// True if the cut severs the *directed* path `from → to`.
    pub fn severs_directed(&self, from: ClusterId, to: ClusterId) -> bool {
        let (from_in, to_in) = (self.group.contains(&from.0), self.group.contains(&to.0));
        if self.oneway {
            from_in && !to_in
        } else {
            from_in != to_in
        }
    }
}

/// Seeded hostile-network behaviour. The default spec disables everything
/// and draws no random numbers, so it composes with scripted partitions
/// without perturbing their determinism.
#[derive(Debug, Clone, Default)]
pub struct HostileSpec {
    /// Seed of the embedded generator.
    pub seed: u64,
    /// Probability that an inter-cluster message is duplicated.
    pub duplication: f64,
    /// Upper bound of the duplicate copy's extra delay beyond the original
    /// arrival.
    pub dup_delay: SimDuration,
    /// Probability that an inter-cluster message is released from FIFO
    /// order and delayed by a jitter (allowing later sends to overtake it).
    pub reorder: f64,
    /// Upper bound of the reordering jitter.
    pub reorder_jitter: SimDuration,
    /// Per *directed* cluster-pair latency skew `(from, to, dist)`; a pair
    /// named more than once takes its last entry.
    pub skew: Vec<(u16, u16, LatencyDist)>,
    /// Probability that an inter-cluster message vanishes on the wire.
    pub loss: f64,
}

impl HostileSpec {
    /// A spec with everything off, drawing from `seed` once features are
    /// enabled.
    pub fn seeded(seed: u64) -> Self {
        HostileSpec {
            seed,
            ..Default::default()
        }
    }

    /// Enable duplication of inter-cluster messages.
    pub fn with_duplication(mut self, p: f64, dup_delay: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.duplication = p;
        self.dup_delay = dup_delay;
        self
    }

    /// Enable bounded reordering of inter-cluster messages.
    pub fn with_reorder(mut self, p: f64, jitter: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.reorder = p;
        self.reorder_jitter = jitter;
        self
    }

    /// Add an asymmetric latency skew on the directed pair `from → to`.
    pub fn with_skew(mut self, from: u16, to: u16, dist: LatencyDist) -> Self {
        self.skew.push((from, to, dist));
        self
    }

    /// Drop every inter-cluster message with probability `p`. A simulated
    /// federation over a spec with `p > 0` runs the reliable transport
    /// (`hc3i_core::xport`) on its inter-cluster links; `p = 0` runs none.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.loss = p;
        self
    }
}

/// What the hostile layer did to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostileOutcome {
    /// Possibly-adjusted arrival time of the (first) copy.
    pub arrival: SimTime,
    /// Arrival time of a duplicate copy, if one was injected.
    pub duplicate: Option<SimTime>,
    /// The message was held by an active partition.
    pub held: bool,
    /// The message vanished on the wire — the caller must not schedule a
    /// delivery (the `arrival` field is meaningless in this case).
    pub lost: bool,
}

/// Post-processor applied to every scheduled delivery. Owns its own FIFO
/// clamp state: once any message of a run is touched, arrival order per
/// channel is re-established here (except where reordering deliberately
/// breaks it). The state covers only the channels this layer can move —
/// inter-cluster ones, and intra-cluster ones of a skewed cluster — and
/// of those only the ones with a message in flight: a channel whose last
/// message has arrived clamps nothing, so its entry is dropped before
/// the map grows. `post` must therefore be called with a `now` that never
/// decreases and a base `arrival` after `now`, as the simulator does.
#[derive(Debug)]
pub struct HostileNet {
    spec: HostileSpec,
    partitions: Vec<PartitionSpec>,
    /// Lazily-seeded per-directed-cluster-pair streams (see
    /// [`Self::pair_seed`]).
    rngs: FastHashMap<(u16, u16), Mix64>,
    last_arrival: InFlight<(NodeId, NodeId)>,
    /// Messages held at a partition cut.
    pub held: u64,
    /// Duplicate copies injected.
    pub duplicates: u64,
    /// Messages released from FIFO order.
    pub reordered: u64,
    /// Messages that vanished on the wire.
    pub lost: u64,
}

impl HostileNet {
    /// Build from a spec and a scripted partition schedule.
    pub fn new(spec: HostileSpec, partitions: Vec<PartitionSpec>) -> Self {
        for p in &partitions {
            assert!(p.at < p.until, "partition heals before it starts");
        }
        HostileNet {
            spec,
            partitions,
            rngs: FastHashMap::default(),
            last_arrival: InFlight::default(),
            held: 0,
            duplicates: 0,
            reordered: 0,
            lost: 0,
        }
    }

    /// Seed of the directed pair `from → to`'s embedded stream: one
    /// SplitMix64 scramble of the spec seed and the pair identity. Pure
    /// function, exposed so tests can reproduce a pair's draw sequence.
    pub(crate) fn pair_seed(seed: u64, from: ClusterId, to: ClusterId) -> u64 {
        let pair = ((from.0 as u64) << 32) | to.0 as u64;
        Mix64::new(seed ^ pair.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }

    /// Post-process one delivery scheduled by the base network: apply
    /// latency skew, reordering, loss, partition holds and duplication, in
    /// that order. `arrival` is the base network's arrival time (already
    /// FIFO per channel).
    ///
    /// Loss and partition holds run *after* the reorder reschedule on
    /// purpose: the reorder jitter moves the arrival, and whether a
    /// message crosses an active cut must be judged against where it
    /// actually lands, not where FIFO would have put it.
    pub fn post(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        arrival: SimTime,
    ) -> HostileOutcome {
        let inter = from.cluster != to.cluster;
        let route = (from.cluster.0, to.cluster.0);
        let skew = self.spec.skew.iter().rev().find(|s| (s.0, s.1) == route);
        let skew = skew.map(|s| s.2);
        // Reorder, loss, holds and duplication are inter-cluster only, and
        // the base network already keeps every channel FIFO: without a
        // skew of its own cluster, nothing below can move an intra-cluster
        // copy, so it draws nothing and leaves no clamp state.
        if !inter && skew.is_none() {
            return HostileOutcome {
                arrival,
                duplicate: None,
                held: false,
                lost: false,
            };
        }
        let mut arrival = arrival;
        let mut reordered = false;
        let mut held = false;

        // All random decisions for this message come from the directed
        // pair's own stream, so they are independent of dispatch order
        // (see the module docs).
        let seed = self.spec.seed;
        let rng = self
            .rngs
            .entry(route)
            .or_insert_with(|| Mix64::new(Self::pair_seed(seed, from.cluster, to.cluster)));

        // 1. Asymmetric per-pair latency skew.
        if let Some(dist) = skew {
            arrival = arrival.saturating_add(dist.sample(rng));
        }

        // 2. Bounded reordering: the message is released from FIFO order
        //    and pushed back by a jitter, letting later sends overtake it.
        //    Inter-cluster only: the protocol's correctness argument leans
        //    on intra-cluster (SAN) FIFO, e.g. RollbackOrder preceding
        //    AlertLocal on every channel.
        if inter && self.spec.reorder > 0.0 && rng.chance(self.spec.reorder) {
            arrival = arrival.saturating_add(rng.jitter(self.spec.reorder_jitter));
            reordered = true;
            self.reordered += 1;
        }

        // 3. Packet loss: the message vanishes. A lost message constrains
        //    nothing downstream — no partition hold, no FIFO clamp state,
        //    no duplicate — so the early return is the whole story.
        if inter && self.spec.loss > 0.0 && rng.chance(self.spec.loss) {
            self.lost += 1;
            return HostileOutcome {
                arrival,
                duplicate: None,
                held: false,
                lost: true,
            };
        }

        // 4. Partition hold: a message crossing an active cut sits in the
        //    WAN until the heal. The FIFO clamp below then serializes all
        //    held messages of a channel in send order after the heal.
        //    Every window is re-checked after a bump (no early break): a
        //    reorder jitter or an earlier hold's release can land the
        //    arrival inside a *later* window, which must hold it again —
        //    otherwise a message sneaks through mid-outage.
        if inter {
            let mut bumped = true;
            while bumped {
                bumped = false;
                for p in &self.partitions {
                    if p.severs_directed(from.cluster, to.cluster)
                        && now < p.until
                        && arrival >= p.at
                    {
                        let release = p.until.saturating_add(SimDuration::from_nanos(1));
                        if release > arrival {
                            arrival = release;
                            bumped = true;
                            if !held {
                                held = true;
                                self.held += 1;
                            }
                        }
                    }
                }
            }
        }

        // 5. Re-establish per-channel FIFO unless this message was
        //    deliberately reordered — but a held message always drains in
        //    send order: the hold-and-drain contract of a cut overrides
        //    the reorder release.
        let last = self.last_arrival.cell(now, (from, to));
        if (!reordered || held) && *last != SimTime::ZERO && arrival <= *last {
            arrival = last.saturating_add(SimDuration::from_nanos(1));
        }
        *last = (*last).max(arrival);

        // 6. Duplication: a ghost copy arrives after the original. The
        //    base network never sees it, so byte/message accounting is
        //    untouched by construction.
        let duplicate = if inter && self.spec.duplication > 0.0 && rng.chance(self.spec.duplication)
        {
            self.duplicates += 1;
            Some(
                arrival
                    .saturating_add(SimDuration::from_nanos(1))
                    .saturating_add(rng.jitter(self.spec.dup_delay)),
            )
        } else {
            None
        };

        HostileOutcome {
            arrival,
            duplicate,
            held,
            lost: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(c: u16, r: u32) -> NodeId {
        NodeId::new(c, r)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn mix64_draws_the_reference_splitmix64_sequence() {
        let mut rng = Mix64::new(0);
        let draws = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
        assert_eq!(
            draws,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }

    #[test]
    fn quiet_spec_is_identity() {
        let mut h = HostileNet::new(HostileSpec::seeded(1), vec![]);
        for i in 0..100u64 {
            let at = t(i + 1);
            let o = h.post(t(i), n(0, 0), n(1, 0), at);
            assert_eq!(o.arrival, at);
            assert_eq!(o.duplicate, None);
            assert!(!o.held);
        }
        assert_eq!(h.duplicates + h.held + h.reordered, 0);
    }

    #[test]
    fn partition_holds_crossing_messages_until_heal() {
        let cut = PartitionSpec {
            at: t(100),
            until: t(200),
            group: vec![0],
            oneway: false,
        };
        let mut h = HostileNet::new(HostileSpec::default(), vec![cut]);
        // Sent and arriving before the cut: untouched.
        assert_eq!(h.post(t(10), n(0, 0), n(1, 0), t(11)).arrival, t(11));
        // In flight when the cut activates: held to the heal.
        let o = h.post(t(99), n(0, 0), n(1, 0), t(101));
        assert!(o.held);
        assert!(o.arrival > t(200));
        // Sent mid-outage: held too, and FIFO after the earlier hold.
        let o2 = h.post(t(150), n(0, 0), n(1, 0), t(151));
        assert!(o2.held);
        assert!(o2.arrival > o.arrival, "heal releases in send order");
        // Sent after the heal: flows normally (but FIFO after the held).
        let o3 = h.post(t(250), n(0, 0), n(1, 0), t(251));
        assert!(!o3.held);
        assert_eq!(o3.arrival, t(251));
        assert_eq!(h.held, 2);
    }

    #[test]
    fn partition_spares_same_side_and_intra_traffic() {
        let cut = PartitionSpec {
            at: t(0) + SimDuration::from_nanos(1),
            until: t(1000),
            group: vec![0, 1],
            oneway: false,
        };
        assert!(cut.severs_directed(ClusterId(0), ClusterId(2)));
        assert!(cut.severs_directed(ClusterId(2), ClusterId(0)));
        assert!(!cut.severs_directed(ClusterId(0), ClusterId(1)));
        assert!(!cut.severs_directed(ClusterId(2), ClusterId(3)));
        let mut h = HostileNet::new(HostileSpec::default(), vec![cut]);
        // Same side of the cut: untouched.
        assert!(!h.post(t(10), n(0, 0), n(1, 0), t(11)).held);
        // Intra-cluster: untouched even mid-outage.
        assert!(!h.post(t(10), n(2, 0), n(2, 1), t(11)).held);
        // Across the cut: held.
        assert!(h.post(t(10), n(0, 0), n(2, 0), t(11)).held);
    }

    #[test]
    fn duplication_is_inter_cluster_only_and_after_original() {
        let spec = HostileSpec::seeded(7).with_duplication(1.0, SimDuration::from_millis(5));
        let mut h = HostileNet::new(spec, vec![]);
        let o = h.post(t(0), n(0, 0), n(1, 0), t(1));
        let dup = o.duplicate.expect("p=1 duplicates");
        assert!(dup > o.arrival);
        assert!(dup <= o.arrival + SimDuration::from_millis(5) + SimDuration::from_nanos(1));
        // Intra-cluster messages are never duplicated (the SAN is
        // exactly-once; 2PC control traffic must not be replayed).
        let o2 = h.post(t(2), n(1, 0), n(1, 1), t(3));
        assert_eq!(o2.duplicate, None);
        assert_eq!(h.duplicates, 1);
    }

    #[test]
    fn reordering_breaks_fifo_only_for_chosen_messages() {
        let spec = HostileSpec::seeded(3).with_reorder(1.0, SimDuration::from_millis(10));
        let mut h = HostileNet::new(spec, vec![]);
        let o1 = h.post(t(0), n(0, 0), n(1, 0), t(1));
        assert!(o1.arrival >= t(1));
        // Intra stays FIFO and un-jittered.
        let i1 = h.post(t(0), n(0, 0), n(0, 1), t(1));
        assert_eq!(i1.arrival, t(1));
        assert_eq!(h.reordered, 1);
    }

    #[test]
    fn skew_applies_to_one_direction_only() {
        let dist = LatencyDist {
            base: SimDuration::from_millis(50),
            jitter: SimDuration::ZERO,
        };
        let spec = HostileSpec::seeded(11).with_skew(0, 1, dist);
        let mut h = HostileNet::new(spec, vec![]);
        assert_eq!(h.post(t(0), n(0, 0), n(1, 0), t(1)).arrival, t(51));
        assert_eq!(h.post(t(0), n(1, 0), n(0, 0), t(1)).arrival, t(1));
    }

    #[test]
    fn same_seed_same_outcomes() {
        let mk = || {
            let spec = HostileSpec::seeded(99)
                .with_duplication(0.5, SimDuration::from_millis(2))
                .with_reorder(0.5, SimDuration::from_millis(2));
            let mut h = HostileNet::new(spec, vec![]);
            (0..200u64)
                .map(|i| h.post(t(i), n(0, 0), n(1, 0), t(i + 1)))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn pair_streams_are_independent() {
        // Interleaving traffic of another pair must not perturb a pair's
        // own outcome sequence — the invariant that makes hostile
        // outcomes independent of dispatch order.
        let spec = || {
            HostileSpec::seeded(4242)
                .with_duplication(0.5, SimDuration::from_millis(2))
                .with_reorder(0.5, SimDuration::from_millis(2))
                .with_loss(0.3)
        };
        let solo: Vec<_> = {
            let mut h = HostileNet::new(spec(), vec![]);
            (0..100u64)
                .map(|i| h.post(t(i), n(0, 0), n(1, 0), t(i + 1)))
                .collect()
        };
        let interleaved: Vec<_> = {
            let mut h = HostileNet::new(spec(), vec![]);
            (0..100u64)
                .map(|i| {
                    // Alien traffic on three other directed pairs between
                    // every probed message.
                    let _ = h.post(t(i), n(2, 0), n(3, 0), t(i + 1));
                    let _ = h.post(t(i), n(1, 0), n(0, 0), t(i + 1));
                    let _ = h.post(t(i), n(3, 0), n(0, 0), t(i + 1));
                    h.post(t(i), n(0, 0), n(1, 0), t(i + 1))
                })
                .collect()
        };
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn loss_drops_inter_cluster_messages_only() {
        let spec = HostileSpec::seeded(13).with_loss(1.0);
        let mut h = HostileNet::new(spec, vec![]);
        let o = h.post(t(0), n(0, 0), n(1, 0), t(1));
        assert!(o.lost);
        assert_eq!(o.duplicate, None);
        assert!(!o.held);
        // Intra-cluster (SAN) traffic is never lost.
        let i = h.post(t(0), n(0, 0), n(0, 1), t(1));
        assert!(!i.lost);
        assert_eq!(h.lost, 1);
    }

    #[test]
    fn lost_messages_leave_no_hold_or_clamp_debt() {
        // A lost message is drawn out *before* the partition hold and the
        // FIFO clamp, so it must not drag the channel's clamp state to the
        // heal time. Find a spec seed whose 0→1 pair stream loses the
        // first draw and keeps the second.
        let seed = (0u64..)
            .find(|&s| {
                let mut m = Mix64::new(HostileNet::pair_seed(s, ClusterId(0), ClusterId(1)));
                m.chance(0.5) && !m.chance(0.5)
            })
            .unwrap();
        let cut = PartitionSpec {
            at: t(100),
            until: t(200),
            group: vec![0],
            oneway: false,
        };
        let mut h = HostileNet::new(HostileSpec::seeded(seed).with_loss(0.5), vec![cut]);
        let first = h.post(t(10), n(0, 0), n(1, 0), t(101));
        assert!(first.lost);
        let second = h.post(t(10), n(0, 0), n(1, 0), t(102));
        assert!(!second.lost);
        assert!(second.held);
        // Exactly heal + 1 ns: the lost copy left no clamp debt behind.
        assert_eq!(second.arrival, t(200) + SimDuration::from_nanos(1));
        assert_eq!(h.lost, 1);
        assert_eq!(h.held, 1);
    }

    #[test]
    fn oneway_partition_cuts_one_direction_only() {
        let cut = PartitionSpec {
            at: t(100),
            until: t(200),
            group: vec![0],
            oneway: true,
        };
        assert!(cut.severs_directed(ClusterId(0), ClusterId(1)));
        assert!(!cut.severs_directed(ClusterId(1), ClusterId(0)));
        let mut h = HostileNet::new(HostileSpec::default(), vec![cut]);
        // 0 → 1 mid-outage: held to the heal.
        let o = h.post(t(120), n(0, 0), n(1, 0), t(121));
        assert!(o.held);
        assert!(o.arrival > t(200));
        // 1 → 0 mid-outage: flows.
        let back = h.post(t(120), n(1, 0), n(0, 0), t(121));
        assert!(!back.held);
        assert_eq!(back.arrival, t(121));
        assert_eq!(h.held, 1);
    }

    #[test]
    fn hold_release_cannot_land_inside_a_later_window() {
        // Regression: with `break` after the first matching window, a
        // hold's release time (window 1 heal + 1 ns) landed inside window
        // 2 and was delivered mid-outage. The fixpoint loop re-checks.
        let cuts = vec![
            PartitionSpec {
                at: t(100),
                until: t(200),
                group: vec![0],
                oneway: false,
            },
            PartitionSpec {
                at: t(200),
                until: t(300),
                group: vec![0],
                oneway: false,
            },
        ];
        let mut h = HostileNet::new(HostileSpec::default(), cuts);
        let o = h.post(t(110), n(0, 0), n(1, 0), t(111));
        assert!(o.held);
        assert!(
            o.arrival > t(300),
            "released at {:?}, inside the second outage",
            o.arrival
        );
    }

    #[test]
    fn reordered_message_still_held_and_drained_in_order() {
        // Regression: a reordered release used to skip the FIFO clamp even
        // when a partition held it, so it could drain out of send order —
        // or, with a jitter pushing the arrival past `at`, arrive
        // mid-outage. Reorder p=1 with a jitter wide enough to jump into
        // the partition window.
        let spec = HostileSpec::seeded(77).with_reorder(1.0, SimDuration::from_millis(500));
        let cut = PartitionSpec {
            at: t(100),
            until: t(400),
            group: vec![0],
            oneway: false,
        };
        let mut h = HostileNet::new(spec, vec![cut]);
        let mut prev = SimTime::ZERO;
        for i in 0..50u64 {
            let o = h.post(t(i), n(0, 0), n(1, 0), t(i + 1));
            assert!(
                !(o.arrival >= t(100) && o.arrival < t(400)),
                "arrival {:?} inside the active cut",
                o.arrival
            );
            if o.held {
                assert!(o.arrival > prev, "held messages drain in send order");
                prev = o.arrival;
            }
        }
        assert!(h.held > 0, "jitter should have pushed sends into the cut");
    }

    #[test]
    fn chance_extremes_draw_nothing_at_zero() {
        let mut a = Mix64::new(5);
        assert!(!a.chance(0.0));
        assert!(a.chance(1.0));
        let before = a.clone().next_u64();
        // p=0 must not consume a draw (quiet specs stay draw-free).
        assert!(!a.chance(-1.0));
        assert_eq!(a.next_u64(), before);
    }

    #[test]
    #[should_panic(expected = "heals before")]
    fn inverted_partition_window_rejected() {
        let _ = HostileNet::new(
            HostileSpec::default(),
            vec![PartitionSpec {
                at: t(10),
                until: t(5),
                group: vec![0],
                oneway: false,
            }],
        );
    }
}
