//! The one JSON string escaper behind every hand-rolled JSON writer in
//! the workspace: `EXPLAIN (FORMAT JSON)`, execution traces, and
//! `strcalc-analyze --json`. There is no serialization dependency in
//! the tree, so each writer emits its own keys and escapes its strings
//! here.

/// Escapes `s` for use inside a JSON string literal: quote, backslash
/// and the common whitespace escapes by name, every other control
/// character as `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
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

#[cfg(test)]
mod tests {
    use super::escape;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain ≤ text"), "plain ≤ text");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("\n\r\t"), "\\n\\r\\t");
        assert_eq!(escape("\u{1}\u{1f}"), "\\u0001\\u001f");
    }
}
