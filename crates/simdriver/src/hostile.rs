//! Side statistics of hostile-network runs.
//!
//! [`RunReport`](crate::RunReport) is the fingerprinted artifact of a run —
//! its `Debug` dump *is* the determinism contract — so hostile-network
//! observations live in this separate structure, returned only by
//! [`run_hostile`](crate::run_hostile). A run with every hostile feature
//! disabled produces byte-identical reports to one that never heard of
//! this module.
//! The delivery ledger carried here is `hc3i-core`'s [`DeliveryLedger`],
//! which the shared interpreter alone feeds.

use hc3i_core::DeliveryLedger;

/// What the hostile network did during a run, plus the optional delivery
/// ledger. Everything here is derived state — the fingerprinted
/// [`RunReport`](crate::RunReport) never references it.
#[derive(Debug, Clone, Default)]
pub struct HostileRunStats {
    /// Scripted partitions that became active during the run.
    pub partitions_activated: u64,
    /// Partitions that healed during the run.
    pub partitions_healed: u64,
    /// Messages held at a partition cut.
    pub messages_held: u64,
    /// Duplicate message copies injected.
    pub duplicates_injected: u64,
    /// Messages released from FIFO order.
    pub messages_reordered: u64,
    /// Messages that vanished on the wire (loss model; retransmitted
    /// copies that are lost count individually).
    pub messages_lost: u64,
    /// Copies put back on the wire by the reliable transport.
    pub retransmissions: u64,
    /// The delivery ledger, present when
    /// [`SimConfig::with_delivery_ledger`](crate::SimConfig::with_delivery_ledger)
    /// was set.
    pub ledger: Option<DeliveryLedger>,
}
