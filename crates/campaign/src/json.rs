//! Minimal hand-rolled JSON rendering.
//!
//! The workspace deliberately carries no serialization dependency; the
//! campaign summary is flat enough to render by hand. Key order is fixed
//! and nothing wall-clock-dependent is ever emitted, so two runs of the
//! same campaign produce byte-identical files — the property the CI
//! golden diff rests on.

/// Escape a string for a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a list of strings as a JSON array literal.
pub(crate) fn string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn arrays_render() {
        assert_eq!(
            string_array(&["x".into(), "y\"z".into()]),
            "[\"x\", \"y\\\"z\"]"
        );
    }
}
