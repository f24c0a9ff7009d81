//! The campaign runner: sweep scenarios × topologies × seeds, check every
//! invariant on every cell, and render a deterministic JSON summary.

use crate::invariants;
use crate::json;
use crate::scenarios::{scenarios, topologies, Scenario};
use netsim::Topology;
use simdriver::run_hostile;

/// What to sweep. Scenarios and topologies always come from the library;
/// the plan only chooses the seeds.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Seed ranges each scenario × topology cell is run with, in order.
    pub seeds: Vec<std::ops::RangeInclusive<u64>>,
}

impl Default for CampaignPlan {
    fn default() -> Self {
        // 20040426: the paper's publication date. The others are arbitrary
        // but fixed — the golden summary is keyed to them.
        Self {
            seeds: vec![20040426..=20040426, 7..=7, 424242..=424242],
        }
    }
}

/// The outcome of one campaign cell (scenario × topology × seed).
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Scenario name.
    pub scenario: &'static str,
    /// Topology preset name.
    pub topology: &'static str,
    /// Seed the cell ran with.
    pub seed: u64,
    /// Invariant violations (empty = cell passed).
    pub violations: Vec<String>,
    /// Total rollbacks across the federation.
    pub rollbacks: u64,
    /// Application messages the workload issued.
    pub app_sent: u64,
    /// Application messages delivered end-to-end.
    pub app_delivered: u64,
    /// Hostile duplicates injected.
    pub duplicates: u64,
    /// Messages held at a partition cut.
    pub held: u64,
    /// Messages reordered past FIFO.
    pub reordered: u64,
    /// Messages the lossy wire dropped (retransmitted copies count
    /// individually). Console-only: deliberately absent from
    /// [`to_json`](CampaignSummary::to_json) to keep the golden schema
    /// stable.
    pub lost: u64,
    /// Copies the reliable transport put back on the wire. Console-only,
    /// like `lost`.
    pub retransmissions: u64,
    /// Completed garbage collections across the federation.
    pub gc_runs: u64,
    /// Forced (communication-induced) CLCs across the federation.
    pub forced_clcs: u64,
    /// Unforced (timer-driven) CLCs across the federation.
    pub unforced_clcs: u64,
    /// Simulator events dispatched (a cheap whole-run fingerprint).
    pub events: u64,
}

/// A completed campaign: one [`CellOutcome`] per cell, in deterministic
/// scenario-major, then topology, then seed order.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// All cell outcomes.
    pub cells: Vec<CellOutcome>,
}

impl CampaignSummary {
    /// Cells with at least one violation.
    pub fn failures(&self) -> Vec<&CellOutcome> {
        self.cells
            .iter()
            .filter(|c| !c.violations.is_empty())
            .collect()
    }

    /// Render the summary as deterministic, diff-friendly JSON (one cell
    /// per entry, fixed key order, no wall-clock values, trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"hc3i-campaign-v1\",\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"scenario\": \"{}\",\n",
                json::escape(c.scenario)
            ));
            out.push_str(&format!(
                "      \"topology\": \"{}\",\n",
                json::escape(c.topology)
            ));
            out.push_str(&format!("      \"seed\": {},\n", c.seed));
            out.push_str(&format!(
                "      \"violations\": {},\n",
                json::string_array(&c.violations)
            ));
            out.push_str(&format!("      \"rollbacks\": {},\n", c.rollbacks));
            out.push_str(&format!("      \"app_sent\": {},\n", c.app_sent));
            out.push_str(&format!("      \"app_delivered\": {},\n", c.app_delivered));
            out.push_str(&format!("      \"duplicates\": {},\n", c.duplicates));
            out.push_str(&format!("      \"held\": {},\n", c.held));
            out.push_str(&format!("      \"reordered\": {},\n", c.reordered));
            out.push_str(&format!("      \"gc_runs\": {},\n", c.gc_runs));
            out.push_str(&format!("      \"forced_clcs\": {},\n", c.forced_clcs));
            out.push_str(&format!("      \"unforced_clcs\": {},\n", c.unforced_clcs));
            out.push_str(&format!("      \"events\": {}\n", c.events));
            out.push_str(if i + 1 == self.cells.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Run one cell: build the scenario for `(topo, seed)`, run it, and check
/// every invariant.
fn run_cell(
    scenario: &Scenario,
    topo_name: &'static str,
    topo: &Topology,
    seed: u64,
) -> CellOutcome {
    let built = scenario.build(topo, seed);
    let (report, hostile) = run_hostile(built.cfg);

    let mut violations = Vec::new();
    violations.extend(invariants::soundness(&report));
    violations.extend(invariants::rollback_waves(&report, &built.waves));
    violations.extend(invariants::gc_liveness(&report, &built.gc));
    violations.extend(invariants::no_lost_committed_work(&hostile));
    violations.extend(invariants::delivered_record_consistency(&hostile));

    CellOutcome {
        scenario: scenario.name,
        topology: topo_name,
        seed,
        violations,
        rollbacks: report.total_rollbacks() as u64,
        app_sent: report.app_sent,
        app_delivered: report.app_delivered,
        duplicates: hostile.duplicates_injected,
        held: hostile.messages_held,
        reordered: hostile.messages_reordered,
        lost: hostile.messages_lost,
        retransmissions: hostile.retransmissions,
        gc_runs: report
            .clusters
            .iter()
            .map(|c| c.gc_before_after.len() as u64)
            .sum(),
        forced_clcs: report.clusters.iter().map(|c| c.forced_clcs).sum(),
        unforced_clcs: report.clusters.iter().map(|c| c.unforced_clcs).sum(),
        events: report.events_processed,
    }
}

/// Run the full scenario × topology × seed matrix.
///
/// `progress` is called after each cell with the finished outcome — the
/// CLI uses it to stream one line per cell; pass `|_| {}` for silence.
pub fn run_campaign(
    plan: &CampaignPlan,
    mut progress: impl FnMut(&CellOutcome),
) -> CampaignSummary {
    let topos = topologies();
    let mut cells = Vec::new();
    for scenario in scenarios() {
        for (topo_name, topo) in &topos {
            for seed in plan.seeds.iter().cloned().flatten() {
                let cell = run_cell(&scenario, topo_name, topo, seed);
                progress(&cell);
                cells.push(cell);
            }
        }
    }
    CampaignSummary { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small cell, run twice: identical outcome (the determinism the
    /// golden diff rests on), and all invariants hold.
    #[test]
    fn single_cell_is_deterministic_and_clean() {
        let topos = topologies();
        let (name, topo) = &topos[0];
        let scenarios = scenarios();
        let a = run_cell(&scenarios[0], name, topo, 7);
        let b = run_cell(&scenarios[0], name, topo, 7);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.events, b.events);
        assert_eq!(a.app_delivered, b.app_delivered);
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(a.duplicates, b.duplicates);
    }

    /// One cell of the matrix, by name: cells that a wider seed sweep (or
    /// the benchmark's) once found failing live on below as named tests,
    /// so the seed that exposed something cannot be lost again.
    fn named_cell(scenario: &str, topology: &str, seed: u64) -> CellOutcome {
        let topos = topologies();
        let (name, topo) = topos.iter().find(|(n, _)| *n == topology).unwrap();
        let scenario = scenarios()
            .into_iter()
            .find(|s| s.name == scenario)
            .unwrap();
        run_cell(&scenario, name, topo, seed)
    }

    /// `dup_reorder_storm x lan_pair`, seed 20040435: node C0.n5 sends tag
    /// 65 at 1079.972 s; the fault at 1080.1 s cascades and cluster 0
    /// restores the CLC it committed at 988.6 s, undoing that send. A
    /// clock-keyed ledger once reported it as lost committed work.
    #[test]
    fn a_send_undone_by_its_senders_rollback_is_not_a_violation() {
        let cell = named_cell("dup_reorder_storm", "lan_pair", 20040435);
        assert!(cell.violations.is_empty(), "{:?}", cell.violations);
        assert!(cell.rollbacks >= 2, "the cascade reached the sender");
    }

    /// Three of the four cells `campaign --seeds 1..=40` failed at PR 17
    /// (4/840), all on the three-cluster topology: the victim restores,
    /// both bystanders restore on its alert one WAN hop later, and one
    /// more hop later one bystander goes a CLC *deeper* on the other's
    /// alert (e.g. seed 4: cluster 2 restores CLC 13 at 840.455 s, CLC 12
    /// at 840.460 s). That is the recovery line being found iteratively
    /// from direct dependencies (paper §3.4), which
    /// [`invariants::rollback_waves`] used to cap at one per bystander.
    #[test]
    fn a_bystander_may_go_deeper_on_another_bystanders_alert() {
        for (scenario, seed, rollbacks) in [
            ("lossy_wan", 4, 4),
            ("lossy_wan", 38, 4),
            ("churn_partition", 35, 6),
        ] {
            let cell = named_cell(scenario, "wan_triangle", seed);
            assert!(cell.violations.is_empty(), "{:?}", cell.violations);
            assert_eq!(
                cell.rollbacks, rollbacks,
                "{scenario} seed {seed}: one bystander rolled back twice in one wave"
            );
        }
    }

    /// The fourth: `partition_during_cascade x wan_triangle`, seed 16 —
    /// "2 inter-cluster sends never delivered (tags [109, 119])". They are
    /// lost, not late. Read off the full trace: C0.n0 sends both to C2.n0
    /// at 1002.9 s and 1056.9 s, at SN 14, epoch 0, into the partition
    /// (960-1110 s), which holds every copy until the heal. Cluster 0
    /// commits CLC 15 at 1077.7 s; the fault at 1080 s restores CLC 15
    /// (epoch 1) — both sends precede the recovery line, so they are
    /// committed work, still unacknowledged in C0.n0's restored log. At
    /// the heal, C2.n0 sees in one instant the first held message, then
    /// cluster 0's alert (floor for origin 0 raised to epoch 1), then the
    /// two messages: epoch 0 is below the floor, so the ghost filter drops
    /// them — and the transport has already acknowledged them. Nothing
    /// resends: clusters 1 and 2 do not roll back, and a restored sender
    /// does not replay its own unacknowledged log. The filter should
    /// reject an older-epoch message only when it was sent at or after
    /// the restored SN (`piggyback SN >= alert SN`); that needs the floor
    /// to carry restore SNs per epoch, which is not a small change — see
    /// ROADMAP, *Correctness by search*.
    #[test]
    #[ignore = "protocol defect: the ghost filter drops old-epoch messages sent before the recovery line"]
    fn a_send_before_the_recovery_line_survives_its_senders_rollback() {
        let cell = named_cell("partition_during_cascade", "wan_triangle", 16);
        assert!(cell.violations.is_empty(), "{:?}", cell.violations);
    }

    /// The seven cells `campaign --seeds 256,336,340` fails, all losing
    /// inter-cluster sends after a rollback: tag 74 (seed 336 on
    /// `lan_pair`), tags 135/136 (seed 256) and tag 141 (seed 336) on
    /// `wan_triangle`, each in `partition_heal` and `asymmetric_cut`, and
    /// 19 tags in `churn_partition` (seed 340 on `wan_triangle`). The
    /// coordinator sends its `RollbackOrder`s and `RollbackAlert`s in one
    /// instant. The order to the failed node queues on the FIFO
    /// intra-cluster link behind a checkpoint fragment of the interrupted
    /// round, so the other clusters act on the alert and resend their
    /// logged messages before that node is revived (seed 336 on
    /// `lan_pair`: tag 74 reaches C0.n1 at 1200.100 s, its order at
    /// 1200.111 s). A failed engine ignores every input but its order, and
    /// nothing resends again. No lost tag was ghost-dropped.
    #[test]
    #[ignore = "protocol defect: the alert overtakes the revival of the failed node"]
    fn an_alert_does_not_overtake_the_revival_of_the_failed_node() {
        let failing: Vec<String> = [
            ("partition_heal", "wan_triangle", 256),
            ("asymmetric_cut", "wan_triangle", 256),
            ("partition_heal", "lan_pair", 336),
            ("asymmetric_cut", "lan_pair", 336),
            ("partition_heal", "wan_triangle", 336),
            ("asymmetric_cut", "wan_triangle", 336),
            ("churn_partition", "wan_triangle", 340),
        ]
        .into_iter()
        .filter_map(|(scenario, topology, seed)| {
            let cell = named_cell(scenario, topology, seed);
            (!cell.violations.is_empty())
                .then(|| format!("{scenario} x {topology} seed {seed}: {:?}", cell.violations))
        })
        .collect();
        assert!(
            failing.is_empty(),
            "{} cells fail:\n{}",
            failing.len(),
            failing.join("\n")
        );
    }

    #[test]
    fn json_shape_is_stable() {
        let summary = CampaignSummary {
            cells: vec![CellOutcome {
                scenario: "s",
                topology: "t",
                seed: 1,
                violations: vec!["v".into()],
                rollbacks: 2,
                app_sent: 3,
                app_delivered: 4,
                duplicates: 5,
                held: 6,
                reordered: 7,
                lost: 0,
                retransmissions: 0,
                gc_runs: 8,
                forced_clcs: 9,
                unforced_clcs: 10,
                events: 11,
            }],
        };
        let j = summary.to_json();
        assert!(j.starts_with("{\n  \"schema\": \"hc3i-campaign-v1\""));
        assert!(j.contains("\"violations\": [\"v\"]"));
        assert!(j.ends_with("  ]\n}\n"));
        assert_eq!(summary.failures().len(), 1);
    }
}
