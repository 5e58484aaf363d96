//! Machine-readable report output.
//!
//! The audit crate deliberately has zero dependencies, so this is a
//! small hand-rolled JSON value tree with a deterministic renderer.
//! Every analysis (`locks`, `atomics`, `reach`) can be asked for a
//! [`Json`] document; `ci.sh` writes them under `target/ci/` so
//! finding counts can be compared across commits like any other metric.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so reports render
/// stably for diffing.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: a JSON string from anything string-like.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: a JSON integer from any unsigned count.
    pub fn count(n: usize) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }

    /// Render as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::str("hi").render(), "\"hi\"\n");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::str("a\"b\\c\nd\te\u{1}").render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n");
    }

    #[test]
    fn nested_structure_is_stable() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("locks")),
            ("count".into(), Json::count(2)),
            (
                "items".into(),
                Json::Arr(vec![Json::str("a"), Json::str("b")]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let text = doc.render();
        assert!(text.contains("\"name\": \"locks\""));
        assert!(text.contains("\"count\": 2"));
        assert!(text.contains("\"empty\": []"));
        // Keys keep insertion order.
        let name_at = text.find("name").unwrap();
        let items_at = text.find("items").unwrap();
        assert!(name_at < items_at);
    }

    #[test]
    fn parses_back_with_a_tiny_checker() {
        // Not a full parser — just balance-check the renderer output.
        let doc = Json::Obj(vec![(
            "arr".into(),
            Json::Arr(vec![Json::Obj(vec![("k".into(), Json::Int(1))])]),
        )]);
        let text = doc.render();
        let mut depth = 0i32;
        let mut in_str = false;
        let mut prev = ' ';
        for c in text.chars() {
            if in_str {
                if c == '"' && prev != '\\' {
                    in_str = false;
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
            }
            prev = c;
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
