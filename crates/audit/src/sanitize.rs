//! Source sanitizer: blanks comments and literal contents so the
//! [`crate::lexer`] only ever sees real code.
//!
//! The scanner is a character-level state machine covering the lexical
//! shapes that matter for false positives: line comments, nested block
//! comments, string literals (including multi-line, byte, and raw
//! strings with arbitrary `#` fences), character literals, and
//! lifetimes. Blanked characters become spaces so line and column
//! numbers survive sanitization.

/// One source line, split into the code that remains after blanking and
/// the comment text that was removed from it.
#[derive(Debug, Default, Clone)]
pub(crate) struct SanitizedLine {
    /// The line with comments and literal contents replaced by spaces.
    pub(crate) code: String,
    /// Concatenated text of every comment that touched this line.
    pub(crate) comment: String,
}

enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
    CharLit,
}

/// Split `source` into sanitized lines.
pub(crate) fn sanitize(source: &str) -> Vec<SanitizedLine> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut cur = SanitizedLine::default();
    let mut mode = Mode::Code;
    let mut i = 0;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(mode, Mode::LineComment) {
                mode = Mode::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        mode = Mode::LineComment;
                        cur.code.push_str("  ");
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        mode = Mode::BlockComment(1);
                        cur.code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        mode = Mode::Str;
                        cur.code.push('"');
                        i += 1;
                    }
                    'r' | 'b' => {
                        // Possible raw/byte string prefix: r", r#", b", br#"…
                        let mut j = i + 1;
                        if c == 'b' && chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let is_raw = (c == 'r' || chars.get(i + 1) == Some(&'r') || hashes == 0)
                            && chars.get(j) == Some(&'"');
                        // Reject plain identifiers like `radius` and make
                        // sure `b` alone is only a prefix before a quote.
                        let prev_is_ident =
                            i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                        if is_raw
                            && !prev_is_ident
                            && (c == 'r' || j > i + 1 || hashes > 0 || chars.get(j) == Some(&'"'))
                        {
                            cur.code.extend(&chars[i..=j]);
                            mode = if c == 'r' || chars.get(i + 1) == Some(&'r') {
                                Mode::RawStr(hashes)
                            } else {
                                Mode::Str
                            };
                            i = j + 1;
                        } else {
                            cur.code.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Lifetime (`'a`) or char literal (`'x'`, `'\n'`).
                        let is_lifetime = matches!(
                            chars.get(i + 1),
                            Some(ch) if (ch.is_alphabetic() || *ch == '_')
                        ) && chars.get(i + 2) != Some(&'\'');
                        if is_lifetime {
                            cur.code.push('\'');
                            i += 1;
                        } else {
                            mode = Mode::CharLit;
                            cur.code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        cur.code.push(c);
                        i += 1;
                    }
                }
            }
            Mode::LineComment => {
                cur.comment.push(c);
                cur.code.push(' ');
                i += 1;
            }
            Mode::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    cur.code.push_str("  ");
                    i += 2;
                } else {
                    cur.comment.push(c);
                    cur.code.push(' ');
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    mode = Mode::Code;
                    cur.code.push('"');
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let closes = (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#'));
                    if closes {
                        mode = Mode::Code;
                        cur.code.push('"');
                        for _ in 0..hashes {
                            cur.code.push('#');
                        }
                        i += 1 + hashes;
                    } else {
                        cur.code.push(' ');
                        i += 1;
                    }
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            Mode::CharLit => {
                if c == '\\' {
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    mode = Mode::Code;
                    cur.code.push('\'');
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(src: &str) -> Vec<String> {
        sanitize(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strings_are_blanked() {
        let out = code(r#"let x = "panic!(.unwrap())";"#);
        assert!(!out[0].contains("panic!"));
        assert!(!out[0].contains(".unwrap()"));
        assert!(out[0].contains("let x ="));
    }

    #[test]
    fn line_comments_are_blanked_and_captured() {
        let out = sanitize("let a = 1; // call .unwrap() here\nlet b = 2;");
        assert!(!out[0].code.contains("unwrap"));
        assert!(out[0].comment.contains(".unwrap()"));
        assert_eq!(out[1].code, "let b = 2;");
    }

    #[test]
    fn nested_block_comments() {
        let out = code("a /* x /* y */ z */ b");
        assert_eq!(out[0].trim_end(), "a                   b");
    }

    #[test]
    fn multiline_string_spans_lines() {
        let out = code("let s = \"first\nsecond.unwrap()\";\nlet t = 3;");
        assert!(!out[1].contains("unwrap"));
        assert_eq!(out[2], "let t = 3;");
    }

    #[test]
    fn raw_strings_with_fences() {
        let out = code("let s = r##\"has \"quote\" and panic! inside\"##; call()");
        assert!(!out[0].contains("panic!"));
        assert!(out[0].contains("call()"));
    }

    #[test]
    fn byte_and_byte_raw_strings() {
        let out = code(r#"let b = b"todo!"; let br = br"panic!"; after()"#);
        assert!(!out[0].contains("todo!"));
        assert!(!out[0].contains("panic!"));
        assert!(out[0].contains("after()"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let out = code("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(out[0].contains("&'a str"));
    }

    #[test]
    fn char_literals_are_blanked() {
        let out = code("let q = '\"'; let n = '\\n'; done()");
        assert!(out[0].contains("done()"));
        assert!(!out[0].contains('\\'));
    }

    #[test]
    fn identifiers_starting_with_r_or_b_survive() {
        let out = code("let radius = bounds.len();");
        assert_eq!(out[0], "let radius = bounds.len();");
    }
}
