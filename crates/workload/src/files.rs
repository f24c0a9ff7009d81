//! The simulator's three configuration files (paper §5.1).
//!
//! "The user has to provide three files: a topology file, an application
//! file and a timer file." We keep that interface, with a simple
//! line-oriented `keyword args…` format (`#` starts a comment):
//!
//! ```text
//! # topology file
//! clusters 2
//! nodes 100 100
//! intra 0 10us 80Mbps
//! intra 1 10us 80Mbps
//! inter 0 1 150us 100Mbps
//! mtbf 100h
//!
//! # application file
//! duration 10h
//! payload 1024
//! compute_mean 0 60s
//! compute_mean 1 70s
//! pattern 0 0.98 0.02
//! pattern 1 0.005 0.995
//!
//! # timers file
//! clc_timer 0 30m
//! clc_timer 1 inf
//! gc_timer 2h
//! detection_delay 100ms
//! ```

use crate::duration::{parse_bandwidth, parse_duration};
use crate::generate::StochasticWorkload;
use desim::SimDuration;
use netsim::{ClusterSpec, LinkSpec, Topology, MAX_CLUSTERS};

/// Parsed timers file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerSpec {
    /// Delay between unforced CLCs, per cluster (`INFINITE` = never).
    pub clc_delays: Vec<SimDuration>,
    /// Garbage-collection period (`None` = never).
    pub gc_interval: Option<SimDuration>,
    /// Failure-detection latency.
    pub detection_delay: SimDuration,
}

/// A parse failure, with the offending line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Rejects a `keyword` line with more than the `args` arguments it takes,
/// rather than reading the first ones and dropping the rest.
fn at_most(ln: usize, tok: &[&str], args: usize) -> Result<(), ParseError> {
    if tok.len() > 1 + args {
        let got = tok.len() - 1;
        return Err(err(
            ln,
            format!("`{}` takes {args} argument(s), got {got}", tok[0]),
        ));
    }
    Ok(())
}

/// How [`arg`] reads a keyword argument: [`number`] or [`parse_duration`].
type Read<T> = fn(&str) -> Option<T>;

/// Keyword argument `i` of line `ln` as `read` takes it; `what` is the
/// error when it is missing or refused.
fn arg<T>(ln: usize, tok: &[&str], i: usize, what: &str, read: Read<T>) -> Result<T, ParseError> {
    let value = tok.get(i).and_then(|s| read(s));
    value.ok_or_else(|| err(ln, what))
}

/// The first keyword argument of line `ln`, the cluster the line is
/// about, as an index below `n`.
fn cluster(ln: usize, tok: &[&str], n: usize, what: &str) -> Result<usize, ParseError> {
    let c = arg(ln, tok, 1, what, number)?;
    if c >= n {
        return Err(err(ln, "cluster out of range"));
    }
    Ok(c)
}

fn number<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

fn content_lines(text: &str) -> impl Iterator<Item = (usize, Vec<&str>)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            None
        } else {
            Some((i + 1, line.split_whitespace().collect()))
        }
    })
}

/// Parse a topology file into a [`Topology`].
pub fn parse_topology(text: &str) -> Result<Topology, ParseError> {
    // Each count with the line that set it, for the cross-line checks.
    let mut n_clusters: Option<(usize, usize)> = None;
    let mut nodes: (Vec<u32>, usize) = (vec![], 0);
    let mut intra: Vec<(usize, usize, LinkSpec)> = vec![];
    let mut inter: Vec<(usize, usize, usize, LinkSpec)> = vec![];
    let mut default_inter = LinkSpec::ethernet_like();
    let mut mtbf = None;

    for (ln, tok) in content_lines(text) {
        match tok[0] {
            "clusters" => {
                at_most(ln, &tok, 1)?;
                let n: usize = arg(ln, &tok, 1, "clusters needs a count", number)?;
                if n == 0 {
                    return Err(err(ln, "need at least one cluster"));
                }
                if n > MAX_CLUSTERS {
                    return Err(err(
                        ln,
                        format!("a federation has at most {MAX_CLUSTERS} clusters, got {n}"),
                    ));
                }
                n_clusters = Some((n, ln));
            }
            "nodes" => {
                let counts: Vec<u32> = tok[1..]
                    .iter()
                    .map(|s| s.parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| err(ln, "nodes must be integers"))?;
                if counts.contains(&0) {
                    return Err(err(ln, "a cluster needs at least one node"));
                }
                nodes = (counts, ln);
            }
            "intra" => {
                let what = "intra needs: cluster latency bandwidth";
                let c = arg(ln, &tok, 1, what, number)?;
                let link = parse_link(&tok[2..]).map_err(|m| err(ln, m))?;
                intra.push((ln, c, link));
            }
            "inter" => {
                if tok.len() == 3 {
                    // `inter <latency> <bandwidth>`: default for all pairs.
                    default_inter = parse_link(&tok[1..]).map_err(|m| err(ln, m))?;
                } else {
                    let a = arg(ln, &tok, 1, "inter needs: a b latency bandwidth", number)?;
                    let b = arg(ln, &tok, 2, "inter needs: a b latency bandwidth", number)?;
                    let link = parse_link(&tok[3..]).map_err(|m| err(ln, m))?;
                    inter.push((ln, a, b, link));
                }
            }
            "mtbf" => {
                at_most(ln, &tok, 1)?;
                let d = arg(ln, &tok, 1, "bad mtbf duration", parse_duration)?;
                if !d.is_infinite() && d.nanos() > 0 {
                    mtbf = Some(d);
                }
            }
            other => return Err(err(ln, format!("unknown keyword `{other}`"))),
        }
    }

    let (n, clusters_ln) = n_clusters.ok_or_else(|| err(0, "missing `clusters`"))?;
    let (nodes, nodes_ln) = nodes;
    if nodes.len() != n {
        // At the `nodes` line, or at `clusters` when there is none.
        let line = if nodes_ln == 0 { clusters_ln } else { nodes_ln };
        return Err(err(
            line,
            format!("expected {n} node counts, got {}", nodes.len()),
        ));
    }
    let mut clusters: Vec<ClusterSpec> = nodes
        .iter()
        .map(|&nodes| ClusterSpec {
            nodes,
            intra: LinkSpec::myrinet_like(),
        })
        .collect();
    for (ln, c, link) in intra {
        let Some(cluster) = clusters.get_mut(c) else {
            return Err(err(ln, "cluster out of range"));
        };
        cluster.intra = link;
    }
    let mut topo = Topology::new(clusters, default_inter);
    for (ln, a, b, link) in inter {
        if a >= n || b >= n || a == b {
            return Err(err(ln, "inter pair out of range"));
        }
        topo.set_inter_link(
            netsim::ClusterId(a as u16),
            netsim::ClusterId(b as u16),
            link,
        );
    }
    topo.mtbf = mtbf;
    Ok(topo)
}

fn parse_link(tok: &[&str]) -> Result<LinkSpec, &'static str> {
    let [latency, bandwidth] = tok else {
        return Err("bad link spec");
    };
    let link = LinkSpec {
        latency: parse_duration(latency).ok_or("bad link spec")?,
        bandwidth_bps: parse_bandwidth(bandwidth).ok_or("bad link spec")?,
    };
    if link.bandwidth_bps == 0 {
        // Nothing sent over a zero-bandwidth link ever arrives.
        return Err("link bandwidth must be positive");
    }
    Ok(link)
}

/// Parse an application file into a [`StochasticWorkload`] (node counts
/// come from the already-parsed topology).
pub fn parse_application(
    text: &str,
    topology: &Topology,
) -> Result<StochasticWorkload, ParseError> {
    let n = topology.num_clusters();
    let mut duration = None;
    let mut payload = 1024u64;
    let mut compute = vec![f64::NAN; n];
    let mut pattern = vec![vec![f64::NAN; n]; n];

    for (ln, tok) in content_lines(text) {
        match tok[0] {
            "duration" => {
                at_most(ln, &tok, 1)?;
                duration = Some(arg(ln, &tok, 1, "bad duration", parse_duration)?);
            }
            "payload" => {
                at_most(ln, &tok, 1)?;
                payload = arg(ln, &tok, 1, "payload needs bytes", number)?;
            }
            "compute_mean" => {
                at_most(ln, &tok, 2)?;
                let c = cluster(ln, &tok, n, "compute_mean needs: cluster duration")?;
                let d = arg(ln, &tok, 2, "bad compute_mean duration", parse_duration)?;
                if d == SimDuration::ZERO {
                    // A zero mean never advances the generator's clock.
                    return Err(err(ln, "compute_mean must be positive"));
                }
                compute[c] = d.as_secs_f64();
            }
            "pattern" => {
                let c = cluster(ln, &tok, n, "pattern needs: cluster p0 p1 …")?;
                if tok.len() != 2 + n {
                    return Err(err(ln, format!("pattern row needs {n} probabilities")));
                }
                for (j, s) in tok[2..].iter().enumerate() {
                    pattern[c][j] = s.parse().map_err(|_| err(ln, "bad probability"))?;
                }
            }
            other => return Err(err(ln, format!("unknown keyword `{other}`"))),
        }
    }

    let workload = StochasticWorkload {
        cluster_sizes: topology
            .cluster_ids()
            .map(|c| topology.nodes_in(c))
            .collect(),
        duration: duration.ok_or_else(|| err(0, "missing `duration`"))?,
        compute_mean_secs: compute,
        pattern,
        payload_bytes: payload,
    };
    if workload.compute_mean_secs.iter().any(|m| m.is_nan()) {
        return Err(err(0, "compute_mean missing for some cluster"));
    }
    if workload
        .pattern
        .iter()
        .any(|row| row.iter().any(|p| p.is_nan()))
    {
        return Err(err(0, "pattern row missing for some cluster"));
    }
    workload.validate().map_err(|m| err(0, m))?;
    Ok(workload)
}

/// Parse a timers file.
pub fn parse_timers(text: &str, num_clusters: usize) -> Result<TimerSpec, ParseError> {
    let mut clc = vec![SimDuration::INFINITE; num_clusters];
    let mut gc = None;
    let mut detection = SimDuration::from_millis(100);

    for (ln, tok) in content_lines(text) {
        match tok[0] {
            "clc_timer" => {
                at_most(ln, &tok, 2)?;
                let c = cluster(ln, &tok, num_clusters, "clc_timer needs: cluster delay")?;
                clc[c] = arg(ln, &tok, 2, "bad delay", parse_duration)?;
                if clc[c] == SimDuration::ZERO {
                    // A zero delay re-arms at the instant it fires.
                    return Err(err(ln, "clc_timer delay must be positive"));
                }
            }
            "gc_timer" => {
                at_most(ln, &tok, 1)?;
                let d = arg(ln, &tok, 1, "bad gc delay", parse_duration)?;
                if d == SimDuration::ZERO {
                    return Err(err(ln, "gc_timer delay must be positive"));
                }
                if !d.is_infinite() {
                    gc = Some(d);
                }
            }
            "detection_delay" => {
                at_most(ln, &tok, 1)?;
                detection = arg(ln, &tok, 1, "bad detection delay", parse_duration)?;
            }
            other => return Err(err(ln, format!("unknown keyword `{other}`"))),
        }
    }
    Ok(TimerSpec {
        clc_delays: clc,
        gc_interval: gc,
        detection_delay: detection,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ClusterId;

    const TOPO: &str = "
# the paper's reference federation
clusters 2
nodes 100 100
intra 0 10us 80Mbps
intra 1 10us 80Mbps
inter 0 1 150us 100Mbps
mtbf inf
";

    #[test]
    fn topology_round_trip() {
        let t = parse_topology(TOPO).unwrap();
        assert_eq!(t.num_clusters(), 2);
        assert_eq!(t.nodes_in(ClusterId(0)), 100);
        assert_eq!(
            t.link_between(ClusterId(0), ClusterId(1)).latency,
            SimDuration::from_micros(150)
        );
        assert_eq!(
            t.link_between(ClusterId(1), ClusterId(1)).bandwidth_bps,
            80_000_000
        );
        assert!(t.mtbf.is_none());
    }

    #[test]
    fn topology_defaults_apply() {
        let t = parse_topology("clusters 3\nnodes 4 4 4\n").unwrap();
        assert_eq!(
            t.link_between(ClusterId(0), ClusterId(0)).latency,
            SimDuration::from_micros(10),
            "intra defaults to Myrinet-like"
        );
        assert_eq!(
            t.link_between(ClusterId(0), ClusterId(2)).latency,
            SimDuration::from_micros(150),
            "inter defaults to Ethernet-like"
        );
    }

    #[test]
    fn topology_errors_carry_line_numbers() {
        let e = parse_topology("clusters 2\nnodes 4 4\nintra 5 10us 80Mbps\n").unwrap_err();
        assert_eq!(e.line, 3);
        let e = parse_topology("banana 1\n").unwrap_err();
        assert!(e.message.contains("banana"));
        assert!(parse_topology("nodes 4\n").is_err(), "missing clusters");
        // Each error names the line that caused it, also when it is only
        // found once the whole file is read.
        for (text, line, problem) in [
            ("clusters 2\n\nnodes 4\n", 3, "expected 2 node counts"),
            ("# no nodes\nclusters 2\n", 2, "expected 2 node counts"),
            ("clusters 2\nnodes 100 0\n", 2, "at least one node"),
            (
                "clusters 2\nnodes 4 4\ninter 0 0 1ms 1Mbps\n",
                3,
                "out of range",
            ),
            (
                "inter 0 2 1ms 1Mbps\nclusters 2\nnodes 4 4\n",
                1,
                "out of range",
            ),
        ] {
            let e = parse_topology(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(problem), "{text:?}: {e}");
        }
    }

    #[test]
    fn an_intra_line_may_come_before_clusters() {
        let t = parse_topology("intra 0 20us 40Mbps\nclusters 2\nnodes 4 4\n").unwrap();
        let link = t.link_between(ClusterId(0), ClusterId(0));
        assert_eq!(link.latency, SimDuration::from_micros(20));
        assert_eq!(link.bandwidth_bps, 40_000_000);
    }

    #[test]
    fn a_repeated_clusters_line_keeps_the_intra_links_before_it() {
        let t = parse_topology("clusters 2\nnodes 4 4\nintra 1 20us 40Mbps\nclusters 2\n").unwrap();
        let link = t.link_between(ClusterId(1), ClusterId(1));
        assert_eq!(link.latency, SimDuration::from_micros(20));
        assert_eq!(link.bandwidth_bps, 40_000_000);
    }

    #[test]
    fn topology_rejects_a_zero_bandwidth() {
        // A message over a 0 bps link never arrives: the run would report
        // zero deliveries and exit 0.
        for (text, line) in [
            ("clusters 2\nnodes 4 4\nintra 0 10us 0bps\n", 3),
            ("clusters 2\nnodes 4 4\ninter 150us 0\n", 3),
            ("clusters 2\nnodes 4 4\n# wan\ninter 0 1 150us 0.4bps\n", 4),
        ] {
            let e = parse_topology(text).unwrap_err();
            assert_eq!(e.line, line, "{text}: {e}");
            assert!(e.message.contains("bandwidth"), "{text}: {e}");
        }
    }

    #[test]
    fn topology_rejects_overwide_federation() {
        // Neither sized nor narrowed to a `u16` id.
        for n in ["65537", "99999999999"] {
            let e = parse_topology(&format!("# wide\nclusters {n}\nnodes 1\n")).unwrap_err();
            assert_eq!(e.line, 2);
            assert!(e.message.contains("at most 65536 clusters"), "{e}");
        }
    }

    #[test]
    fn application_round_trip() {
        let topo = parse_topology(TOPO).unwrap();
        let app = parse_application(
            "duration 10h\npayload 2048\ncompute_mean 0 60s\ncompute_mean 1 70s\n\
             pattern 0 0.98 0.02\npattern 1 0.005 0.995\n",
            &topo,
        )
        .unwrap();
        assert_eq!(app.duration, SimDuration::from_hours(10));
        assert_eq!(app.payload_bytes, 2048);
        assert_eq!(app.compute_mean_secs, vec![60.0, 70.0]);
        assert_eq!(app.pattern[1], vec![0.005, 0.995]);
    }

    #[test]
    fn application_validates_rows() {
        let topo = parse_topology(TOPO).unwrap();
        let e = parse_application(
            "duration 1h\ncompute_mean 0 1s\ncompute_mean 1 1s\npattern 0 0.5 0.2\npattern 1 0 1\n",
            &topo,
        )
        .unwrap_err();
        assert!(e.message.contains("sums"));
        assert!(
            parse_application("duration 1h\n", &topo).is_err(),
            "missing rows"
        );
    }

    #[test]
    fn application_rejects_a_zero_compute_mean() {
        // A zero mean parses as a duration, and then the generator's clock
        // never reaches the horizon.
        let topo = parse_topology(TOPO).unwrap();
        for zero in ["0s", "0ms"] {
            let text = format!(
                "duration 1h\ncompute_mean 0 1s\ncompute_mean 1 {zero}\n\
                 pattern 0 0.9 0.1\npattern 1 0 1\n"
            );
            let e = parse_application(&text, &topo).unwrap_err();
            assert_eq!(e.line, 3, "{zero}: {e}");
            assert!(e.message.contains("compute_mean"), "{zero}: {e}");
        }
    }

    #[test]
    fn timers_round_trip() {
        let spec = parse_timers(
            "clc_timer 0 30m\nclc_timer 1 inf\ngc_timer 2h\ndetection_delay 50ms\n",
            2,
        )
        .unwrap();
        assert_eq!(spec.clc_delays[0], SimDuration::from_minutes(30));
        assert!(spec.clc_delays[1].is_infinite());
        assert_eq!(spec.gc_interval, Some(SimDuration::from_hours(2)));
        assert_eq!(spec.detection_delay, SimDuration::from_millis(50));
    }

    #[test]
    fn timers_reject_a_zero_delay() {
        // A zero delay parses as a duration, and then the timer re-arms at
        // the instant it fires: the run never advances.
        for zero in ["0s", "0", "0ms"] {
            let e = parse_timers(&format!("clc_timer 1 30m\nclc_timer 0 {zero}\n"), 2).unwrap_err();
            assert_eq!(e.line, 2, "{zero}: {e}");
            assert!(e.message.contains("clc_timer"), "{zero}: {e}");
        }
        let e = parse_timers("clc_timer 0 30m\n\ngc_timer 0s\n", 2).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("gc_timer"), "{e}");
    }

    #[test]
    fn timers_default_to_never() {
        let spec = parse_timers("", 3).unwrap();
        assert!(spec.clc_delays.iter().all(|d| d.is_infinite()));
        assert_eq!(spec.gc_interval, None);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let t = parse_topology("# hi\n\nclusters 1 # trailing\nnodes 2\n").unwrap();
        assert_eq!(t.num_clusters(), 1);
    }
}
