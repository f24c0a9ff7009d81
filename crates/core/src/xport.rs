//! Host-level reliable transport for lossy inter-cluster links.
//!
//! The [`NodeEngine`](crate::NodeEngine) assumes the exactly-once, FIFO
//! transport the paper's machine model grants it. The hostile network
//! model (`netsim::hostile`) can violate that with packet loss; this
//! module restores the contract *below* the engine, the way a real
//! deployment's TCP/QUIC layer would, so the protocol code stays
//! byte-identical whether the wire is pristine or drops half its traffic:
//!
//! * the sending host wraps every inter-cluster message in
//!   [`Msg::Reliable`] with a per-directed-node-pair sequence number,
//!   keeps the copy in a bounded in-flight window, and retransmits on a
//!   timer with exponential backoff ([`XportConfig::rto`] doubling up to
//!   [`XportConfig::rto_cap`]) until the peer's [`Msg::XportAck`] cancels
//!   it — sends beyond the window queue at the sender and enter the wire
//!   as acks free slots;
//! * the receiving host acks *every* copy it sees (acks travel
//!   unreliably: a lost ack is covered by the sender's retransmission and
//!   the receiver's dedup) and hands the engine only the first copy of
//!   each sequence — a cumulative watermark plus a sparse above-watermark
//!   set make the dedup state O(reordering window), not O(messages).
//!
//! The state machines here are substrate-neutral, and so is the code that
//! drives them ([`crate::host`]'s `send`/`receive`/`retry`): the
//! discrete-event simulator arms one `desim` timer event per copy and the
//! threaded runtime polls from its shard ticks, both expressing "now" as a
//! [`SimTime`].
//! Everything is deterministic — no randomness, iteration in sequence
//! order — so simulator fingerprints stay a pure function of the
//! configuration and seed.

use crate::msg::Msg;
use hc3i_types::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Tuning of the reliability sub-layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XportConfig {
    /// Maximum unacknowledged copies in flight per directed node pair;
    /// further sends queue at the sender until acks free slots.
    pub window: usize,
    /// Initial retransmission timeout.
    pub rto: SimDuration,
    /// Backoff cap: the doubling stops here.
    pub rto_cap: SimDuration,
}

impl Default for XportConfig {
    /// 50 ms initial RTO doubling to a 5 s cap, window 32: at 50% loss a
    /// copy survives the two-minute drain window every scenario grants
    /// with overwhelming probability (~29 attempts).
    fn default() -> Self {
        XportConfig {
            window: 32,
            rto: SimDuration::from_millis(50),
            rto_cap: SimDuration::from_secs(5),
        }
    }
}

impl XportConfig {
    /// The retransmission deadline after `retries` prior attempts:
    /// `rto << retries`, capped.
    fn backoff(&self, retries: u32) -> SimDuration {
        let base = self.rto.nanos();
        let shifted = if base == 0 {
            0
        } else if retries >= base.leading_zeros() {
            u64::MAX
        } else {
            base << retries
        };
        SimDuration::from_nanos(shifted.min(self.rto_cap.nanos()))
    }
}

/// One unacknowledged copy held by a [`SenderChannel`].
#[derive(Debug, Clone)]
struct Inflight {
    msg: Msg,
    /// Retransmissions performed so far (0 = only the original send).
    retries: u32,
    /// When the next retransmission is due.
    next_at: SimTime,
}

/// Sender side of one directed node pair: sequence assignment, the
/// bounded in-flight window, the overflow queue and the backoff clock.
#[derive(Debug, Default)]
pub struct SenderChannel {
    next_seq: u64,
    inflight: BTreeMap<u64, Inflight>,
    queue: VecDeque<Msg>,
    /// Retransmitted copies (accounting only).
    pub retransmissions: u64,
}

impl SenderChannel {
    /// Accept `msg` for reliable delivery. Returns the assigned sequence
    /// if the window had room (the caller puts `Reliable{seq, msg}` on
    /// the wire and arms a retransmit timer at the copy's deadline);
    /// `None` means the message queued and enters the wire later, from
    /// [`SenderChannel::ack`]'s released batch.
    pub fn send(&mut self, now: SimTime, cfg: &XportConfig, msg: Msg) -> Option<u64> {
        if self.inflight.len() >= cfg.window {
            self.queue.push_back(msg);
            return None;
        }
        Some(self.admit(now, cfg, msg))
    }

    fn admit(&mut self, now: SimTime, cfg: &XportConfig, msg: Msg) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.insert(
            seq,
            Inflight {
                msg,
                retries: 0,
                next_at: now.saturating_add(cfg.backoff(0)),
            },
        );
        seq
    }

    /// Process an ack: drop the in-flight copy and admit queued messages
    /// into the freed window. Returns the newly admitted `(seq, msg)`
    /// pairs the caller must put on the wire (clones stay inside the
    /// window). Duplicate acks return an empty batch.
    pub fn ack(&mut self, now: SimTime, cfg: &XportConfig, seq: u64) -> Vec<(u64, Msg)> {
        if self.inflight.remove(&seq).is_none() {
            return Vec::new();
        }
        let mut released = Vec::new();
        while self.inflight.len() < cfg.window {
            match self.queue.pop_front() {
                Some(msg) => {
                    let seq = self.admit(now, cfg, msg.clone());
                    released.push((seq, msg));
                }
                None => break,
            }
        }
        released
    }

    /// Retransmit one specific sequence if it is still in flight and its
    /// deadline has passed: bump the backoff and return the wire copy plus
    /// the new deadline. `None` means the copy was acked meanwhile (or the
    /// deadline moved) — the caller's timer event is stale, ignore it.
    pub(crate) fn retransmit(
        &mut self,
        now: SimTime,
        cfg: &XportConfig,
        seq: u64,
    ) -> Option<(Msg, SimTime)> {
        let entry = self.inflight.get_mut(&seq)?;
        if entry.next_at > now {
            return None;
        }
        entry.retries += 1;
        entry.next_at = now.saturating_add(cfg.backoff(entry.retries));
        self.retransmissions += 1;
        Some((entry.msg.clone(), entry.next_at))
    }

    /// The retransmission deadline of one in-flight sequence.
    pub(crate) fn deadline(&self, seq: u64) -> Option<SimTime> {
        self.inflight.get(&seq).map(|e| e.next_at)
    }

    /// `(seq, deadline)` of every in-flight copy, in sequence order (what
    /// a polling host scans for due retransmissions).
    pub(crate) fn deadlines(&self) -> impl Iterator<Item = (u64, SimTime)> + '_ {
        self.inflight.iter().map(|(&seq, e)| (seq, e.next_at))
    }
}

/// Receiver side of one directed node pair: exactly-once admission by
/// sequence number. All sequences `<= watermark` were seen; the sparse
/// set holds seen sequences above it (loss/reordering gaps).
#[derive(Debug, Default)]
pub struct ReceiverChannel {
    watermark: Option<u64>,
    above: BTreeSet<u64>,
}

impl ReceiverChannel {
    /// Admit a received sequence. `true` means first sighting — hand the
    /// inner message to the engine; `false` means duplicate — ack and
    /// drop. Either way the caller acks.
    pub fn accept(&mut self, seq: u64) -> bool {
        if let Some(w) = self.watermark {
            if seq <= w {
                return false;
            }
        }
        if !self.above.insert(seq) {
            return false;
        }
        // Advance the cumulative watermark over any now-contiguous run.
        let mut w = self.watermark;
        loop {
            let next = w.map_or(0, |v| v + 1);
            if self.above.remove(&next) {
                w = Some(next);
            } else {
                break;
            }
        }
        self.watermark = w;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn probe(seq: u64) -> Msg {
        Msg::XportAck { seq } // any cheap distinguishable payload
    }

    #[test]
    fn sequences_are_assigned_in_order_and_window_bounds_flight() {
        let cfg = XportConfig {
            window: 2,
            ..Default::default()
        };
        let mut s = SenderChannel::default();
        assert_eq!(s.send(t(0), &cfg, probe(0)), Some(0));
        assert_eq!(s.send(t(0), &cfg, probe(1)), Some(1));
        assert_eq!(s.send(t(0), &cfg, probe(2)), None, "window full: queued");
        assert_eq!((s.inflight.len(), s.queue.len()), (2, 1));
        // Ack frees a slot and releases the queued message under seq 2.
        let released = s.ack(t(1), &cfg, 0);
        assert_eq!(released, vec![(2, probe(2))]);
        assert_eq!((s.inflight.len(), s.queue.len()), (2, 0));
        // Duplicate ack: no-op.
        assert!(s.ack(t(2), &cfg, 0).is_empty());
    }

    #[test]
    fn retransmission_backs_off_exponentially_to_the_cap() {
        let cfg = XportConfig {
            window: 8,
            rto: SimDuration::from_millis(50),
            rto_cap: SimDuration::from_millis(300),
        };
        let mut s = SenderChannel::default();
        s.send(t(0), &cfg, probe(7));
        assert_eq!(s.deadline(0), Some(t(50)));
        assert_eq!(s.retransmit(t(49), &cfg, 0), None, "not due yet");
        assert_eq!(s.retransmit(t(50), &cfg, 0), Some((probe(7), t(150))));
        assert_eq!(s.deadline(0), Some(t(150)), "50 + 2*50 backoff");
        assert_eq!(
            s.retransmit(t(150), &cfg, 0),
            Some((probe(7), t(350))),
            "150 + 200 (still under the cap)"
        );
        assert_eq!(
            s.retransmit(t(350), &cfg, 0),
            Some((probe(7), t(650))),
            "cap reached: +300"
        );
        assert_eq!(s.retransmissions, 3);
        assert_eq!(s.deadlines().collect::<Vec<_>>(), vec![(0, t(650))]);
        // Ack cancels everything.
        s.ack(t(651), &cfg, 0);
        assert_eq!(s.retransmit(t(10_000), &cfg, 0), None);
        assert_eq!(s.deadlines().next(), None);
    }

    #[test]
    fn receiver_admits_each_sequence_exactly_once_in_any_order() {
        let mut r = ReceiverChannel::default();
        assert!(r.accept(0));
        assert!(!r.accept(0), "duplicate of the watermark run");
        assert!(r.accept(3), "gap: admitted above the watermark");
        assert!(r.accept(2));
        assert!(!r.accept(3), "duplicate above the watermark");
        assert_eq!(r.above.len(), 2);
        assert!(r.accept(1), "fills the gap");
        assert_eq!(r.above.len(), 0, "watermark swallowed 1,2,3");
        for seq in 0..=3 {
            assert!(!r.accept(seq), "seq {seq} replayed after compaction");
        }
        assert!(r.accept(4));
    }

    #[test]
    fn backoff_shift_never_overflows() {
        let cfg = XportConfig::default();
        assert_eq!(cfg.backoff(200), cfg.rto_cap);
        let wild = XportConfig {
            window: 1,
            rto: SimDuration::from_nanos(u64::MAX / 2),
            rto_cap: SimDuration::from_nanos(u64::MAX),
        };
        assert_eq!(wild.backoff(63).nanos(), u64::MAX);
    }
}
