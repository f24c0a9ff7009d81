//! Human-friendly duration and rate parsing for the config files.

use desim::SimDuration;

/// Parse a duration literal: `10us`, `150ms`, `30s`, `15m`, `2h`, `inf`,
/// or a bare number of seconds (`42`). Returns `None` on malformed input.
pub(crate) fn parse_duration(s: &str) -> Option<SimDuration> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("inf") || s.eq_ignore_ascii_case("infinite") {
        return Some(SimDuration::INFINITE);
    }
    let (num, unit) = split_unit(s);
    let value: f64 = num.parse().ok()?;
    if value < 0.0 {
        return None;
    }
    let secs = match unit {
        "ns" => value * 1e-9,
        "us" | "µs" => value * 1e-6,
        "ms" => value * 1e-3,
        "" | "s" => value,
        "m" | "min" => value * 60.0,
        "h" => value * 3600.0,
        _ => return None,
    };
    Some(SimDuration::from_secs_f64(secs))
}

/// Parse a bandwidth literal: `80Mbps`, `1Gbps`, `100kbps`, or bare bits
/// per second (`1000000`).
pub(crate) fn parse_bandwidth(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, unit) = split_unit(s);
    let value: f64 = num.parse().ok()?;
    if value < 0.0 {
        return None;
    }
    // Case-sensitive on the magnitude prefix so that `MBps` (megaBYTES per
    // second) is rejected rather than silently read as megabits.
    let bps = match unit {
        "" | "bps" => value,
        "kbps" | "Kbps" => value * 1e3,
        "Mbps" | "mbps" => value * 1e6,
        "Gbps" | "gbps" => value * 1e9,
        _ => return None,
    };
    Some(bps as u64)
}

fn split_unit(s: &str) -> (&str, &str) {
    let split = s
        .find(|c: char| c.is_ascii_alphabetic() || c == 'µ')
        .unwrap_or(s.len());
    (&s[..split], &s[split..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_parse() {
        assert_eq!(parse_duration("10us"), Some(SimDuration::from_micros(10)));
        assert_eq!(parse_duration("150ms"), Some(SimDuration::from_millis(150)));
        assert_eq!(parse_duration("30s"), Some(SimDuration::from_secs(30)));
        assert_eq!(parse_duration("15m"), Some(SimDuration::from_minutes(15)));
        assert_eq!(parse_duration("2h"), Some(SimDuration::from_hours(2)));
        assert_eq!(parse_duration("42"), Some(SimDuration::from_secs(42)));
        assert_eq!(parse_duration("1.5s"), Some(SimDuration::from_millis(1500)));
        assert_eq!(parse_duration(" inf "), Some(SimDuration::INFINITE));
        assert_eq!(parse_duration("INFINITE"), Some(SimDuration::INFINITE));
    }

    #[test]
    fn bad_durations_rejected() {
        assert_eq!(parse_duration("abc"), None);
        assert_eq!(parse_duration("10 parsecs"), None);
        assert_eq!(parse_duration("-5s"), None);
        assert_eq!(parse_duration(""), None);
    }

    #[test]
    fn bandwidths_parse() {
        assert_eq!(parse_bandwidth("80Mbps"), Some(80_000_000));
        assert_eq!(parse_bandwidth("100mbps"), Some(100_000_000));
        assert_eq!(parse_bandwidth("1Gbps"), Some(1_000_000_000));
        assert_eq!(parse_bandwidth("64kbps"), Some(64_000));
        assert_eq!(parse_bandwidth("1200"), Some(1200));
    }

    #[test]
    fn bad_bandwidths_rejected() {
        assert_eq!(parse_bandwidth("fast"), None);
        assert_eq!(parse_bandwidth("-80Mbps"), None);
        assert_eq!(parse_bandwidth("80MBps"), None, "bytes-per-sec not a unit");
    }
}
