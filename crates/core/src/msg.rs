//! Wire messages of the HC3I protocol.

use crate::config::ProtocolConfig;
use hc3i_types::MessageClass;
use std::sync::Arc;
use storage::{Ddv, LogId, SeqNum};

// The wire-size model: what each message costs the network accounting
// ([`Msg::wire_bytes`]); the protocol logic itself never reads these.

/// A bare control message (requests, acks, commits, alerts).
pub(crate) const CONTROL_BYTES: u64 = 64;
/// An inter-cluster application-message acknowledgement, or a transport ack.
pub(crate) const ACK_BYTES: u64 = 16;
/// One node's checkpoint fragment, replicated to its holders at every CLC:
/// 4 MiB of process state, the dominant cost of checkpointing.
pub const FRAGMENT_BYTES: u64 = 4 << 20;
/// One DDV entry, when a DDV travels on the wire.
pub(crate) const DDV_ENTRY_BYTES: u64 = 8;

/// An application payload as the protocol sees it: opaque content of a known
/// size, tagged by the workload layer for end-to-end tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppPayload {
    /// Payload size in bytes.
    pub bytes: u64,
    /// Workload-assigned tag (delivery tracking in tests and drivers).
    pub tag: u64,
}

/// Dependency information piggybacked on inter-cluster application
/// messages.
///
/// The DDV variant is `Arc`-shared: the sender's engine stamps one
/// immutable DDV snapshot per committed CLC and every message sent under
/// that stamp bumps a reference count instead of deep-cloning the vector,
/// so attaching dependency information no longer scales with the number of
/// clusters in the federation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Piggyback {
    /// The sender cluster's SN (paper §3.2).
    Sn(SeqNum),
    /// The sender cluster's whole DDV (paper §7 transitive extension).
    Ddv(Arc<Ddv>),
}

/// Why a node asks its coordinator to start a CLC round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClcReason {
    /// The cluster's periodic checkpoint timer fired (unforced CLC).
    Timer,
    /// An inter-cluster message requires a forced CLC before delivery;
    /// carries the DDV raise(s) to apply at commit.
    Forced(Piggyback, usize),
}

/// Every message a node can put on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    // ---- intra-cluster: coordinated checkpointing (2PC) ----
    /// Node → coordinator: please start a CLC round.
    ClcInit {
        /// Why the round is needed.
        reason: ClcReason,
        /// Sender's rollback epoch (stale requests are dropped).
        epoch: u64,
    },
    /// Coordinator → cluster: freeze and stage your state.
    ClcRequest {
        /// Round identifier, unique within an epoch.
        round: u64,
        /// Coordinator's rollback epoch.
        epoch: u64,
    },
    /// Node → replica holder: here is my staged checkpoint fragment.
    FragmentReplica {
        /// Round this fragment belongs to.
        round: u64,
        /// Owner's rank (for the holder's bookkeeping).
        owner: u32,
        /// Rollback epoch.
        epoch: u64,
    },
    /// Replica holder → node: fragment safely stored.
    FragmentStored {
        /// Round this ack belongs to.
        round: u64,
        /// Holder's rank.
        holder: u32,
        /// Rollback epoch.
        epoch: u64,
    },
    /// Node → coordinator: staged and replicated, ready to commit.
    ClcAck {
        /// Round being acknowledged.
        round: u64,
        /// Acknowledging rank.
        rank: u32,
        /// Rollback epoch.
        epoch: u64,
    },
    /// Coordinator → cluster: commit the staged checkpoint.
    ClcCommit {
        /// Round being committed.
        round: u64,
        /// The sequence number this CLC commits as.
        sn: SeqNum,
        /// The DDV stamped on this CLC (identical cluster-wide, so it is
        /// `Arc`-shared: broadcasting the commit to an `n`-node cluster
        /// clones a pointer, not `n` vectors).
        ddv: Arc<Ddv>,
        /// Whether an inter-cluster message forced this CLC.
        forced: bool,
        /// Rollback epoch.
        epoch: u64,
    },

    // ---- application traffic ----
    /// Intra-cluster application message.
    AppIntra {
        /// The payload.
        payload: AppPayload,
        /// Sender's cluster SN at send time (consistency monitoring).
        sent_at_sn: SeqNum,
    },
    /// Inter-cluster application message with piggybacked dependency info.
    AppInter {
        /// The payload.
        payload: AppPayload,
        /// Piggybacked SN or DDV.
        piggyback: Piggyback,
        /// The sender's log entry id (ack routing + receiver-side dedup).
        log_id: LogId,
        /// True when this is a replay from the sender's log.
        resend: bool,
        /// The sender cluster's rollback epoch (incarnation). Receivers
        /// drop messages from incarnations the federation knows to be
        /// dead: in-flight sends of a rolled-back execution are ghosts.
        sender_epoch: u64,
    },
    /// Receiver → sender: inter-cluster message delivered at this SN.
    InterAck {
        /// The sender's log entry being acknowledged.
        log_id: LogId,
        /// Receiver cluster's SN at delivery.
        receiver_sn: SeqNum,
    },

    // ---- rollback ----
    /// Recovery coordinator → cluster: restore the CLC numbered
    /// `restore_sn` and enter `epoch`.
    RollbackOrder {
        /// SN of the CLC to restore.
        restore_sn: SeqNum,
        /// The new (strictly larger) rollback epoch.
        epoch: u64,
    },
    /// Cluster coordinator → other clusters: we rolled back to `sn`.
    RollbackAlert {
        /// The cluster that rolled back.
        origin: usize,
        /// Its restored SN.
        sn: SeqNum,
        /// The origin cluster's new rollback epoch. Used to process each
        /// alert exactly once and to reject the dead incarnation's
        /// in-flight messages.
        origin_epoch: u64,
    },
    /// Coordinator → cluster: scan your logs against this alert (and the
    /// paper's intra-cluster alert re-broadcast).
    AlertLocal {
        /// The cluster that rolled back.
        origin: usize,
        /// Its restored SN.
        sn: SeqNum,
        /// The origin cluster's new rollback epoch.
        origin_epoch: u64,
    },

    // ---- garbage collection ----
    /// GC initiator → cluster coordinator: send your CLC DDV list.
    GcCollect,
    /// Cluster coordinator → GC initiator: stored `(SN, DDV)` pairs.
    GcDdvList {
        /// Reporting cluster.
        cluster: usize,
        /// Its stored checkpoints' stamps, oldest first. `Arc`-shared
        /// with the reporting store in-process (assembling the list clones
        /// pointers); [`Msg::wire_bytes`], the byte model, still sizes the
        /// stamps by value, so the sharing changes no charged byte.
        list: Vec<(SeqNum, Arc<Ddv>)>,
    },
    /// GC initiator → everyone (via coordinators): safe minimum SNs.
    GcPrune {
        /// Per-cluster smallest SN any failure could force a rollback to.
        min_sns: Vec<SeqNum>,
    },

    // ---- host-level reliable transport (lossy networks) ----
    /// Reliability envelope around an inter-cluster message on a lossy
    /// network: the sending host assigns `seq` per directed node pair,
    /// retransmits with exponential backoff until acknowledged, and the
    /// receiving host dedups by `seq` before handing `inner` to the
    /// engine. Engines never see this variant (see [`crate::SenderChannel`]).
    Reliable {
        /// Per-directed-node-pair transport sequence number.
        seq: u64,
        /// The protocol message being carried.
        inner: Box<Msg>,
    },
    /// Receiving host → sending host: [`Msg::Reliable`] copy `seq`
    /// arrived. Sent unreliably — a lost ack is covered by the sender's
    /// retransmission plus the receiver's dedup.
    XportAck {
        /// The transport sequence being acknowledged.
        seq: u64,
    },
}

impl Msg {
    /// Accounting class of this message.
    pub fn class(&self) -> MessageClass {
        match self {
            Msg::AppIntra { .. } | Msg::AppInter { .. } => MessageClass::App,
            Msg::InterAck { .. } | Msg::XportAck { .. } => MessageClass::Ack,
            Msg::Reliable { inner, .. } => inner.class(),
            _ => MessageClass::Protocol,
        }
    }

    /// Bytes this message occupies on the wire in a federation of `cfg`'s
    /// width.
    pub fn wire_bytes(&self, cfg: &ProtocolConfig) -> u64 {
        match self {
            Msg::AppIntra { payload, .. } => payload.bytes,
            Msg::AppInter {
                payload, piggyback, ..
            } => {
                payload.bytes
                    + match piggyback {
                        Piggyback::Sn(_) => 8,
                        Piggyback::Ddv(_) => cfg.ddv_bytes(),
                    }
            }
            Msg::InterAck { .. } => ACK_BYTES,
            Msg::FragmentReplica { .. } => FRAGMENT_BYTES,
            Msg::ClcCommit { .. } => CONTROL_BYTES + cfg.ddv_bytes(),
            Msg::GcDdvList { list, .. } => {
                CONTROL_BYTES + list.len() as u64 * (8 + cfg.ddv_bytes())
            }
            Msg::GcPrune { min_sns } => CONTROL_BYTES + 8 * min_sns.len() as u64,
            Msg::Reliable { inner, .. } => inner.wire_bytes(cfg) + 8,
            Msg::XportAck { .. } => ACK_BYTES,
            _ => CONTROL_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::new(vec![2, 2, 2])
    }

    #[test]
    fn classes_are_correct() {
        let p = AppPayload { bytes: 10, tag: 0 };
        assert_eq!(
            Msg::AppIntra {
                payload: p,
                sent_at_sn: SeqNum(1)
            }
            .class(),
            MessageClass::App
        );
        assert_eq!(
            Msg::InterAck {
                log_id: LogId(0),
                receiver_sn: SeqNum(1)
            }
            .class(),
            MessageClass::Ack
        );
        assert_eq!(
            Msg::ClcRequest { round: 1, epoch: 0 }.class(),
            MessageClass::Protocol
        );
        assert_eq!(Msg::GcCollect.class(), MessageClass::Protocol);
    }

    #[test]
    fn wire_bytes_scale_with_content() {
        let cfg = cfg();
        let p = AppPayload {
            bytes: 1000,
            tag: 0,
        };
        let sn_msg = Msg::AppInter {
            payload: p,
            piggyback: Piggyback::Sn(SeqNum(1)),
            log_id: LogId(0),
            resend: false,
            sender_epoch: 0,
        };
        let ddv_msg = Msg::AppInter {
            payload: p,
            piggyback: Piggyback::Ddv(Arc::new(Ddv::zeros(3))),
            log_id: LogId(0),
            resend: false,
            sender_epoch: 0,
        };
        assert_eq!(sn_msg.wire_bytes(&cfg), 1008);
        assert_eq!(ddv_msg.wire_bytes(&cfg), 1024, "3 clusters x 8 bytes");
        assert!(
            Msg::FragmentReplica {
                round: 0,
                owner: 0,
                epoch: 0
            }
            .wire_bytes(&cfg)
                > 1 << 20,
            "fragments are the big transfers"
        );
        let list = vec![(SeqNum(1), Arc::new(Ddv::zeros(3))); 4];
        assert_eq!(
            Msg::GcDdvList { cluster: 0, list }.wire_bytes(&cfg),
            64 + 4 * (8 + 24)
        );
    }
}
