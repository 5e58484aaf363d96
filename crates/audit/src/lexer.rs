//! Token-level view of a Rust source file.
//!
//! The lexer runs on top of a private sanitizer, which has
//! already blanked comments and literal *contents* while keeping the
//! delimiters, so every `"` it sees opens or closes a string and every
//! `'` is either a lifetime sigil or a char-literal delimiter. On that
//! cleaned text a single pass produces a flat token stream; two cheap
//! post-passes then stamp each token with its brace depth and whether
//! it sits inside a `#[test]` / `#[cfg(test)]` region. The token stream
//! is what all three analyses walk — lock order ([`crate::locks`]),
//! atomic ordering ([`crate::atomics`]) and reachability
//! ([`crate::reach`]). None of them touches raw text, so
//! macro bodies, raw strings, and multi-line method chains cannot fool
//! them the way they could a line-regex rule, and they all honour
//! waivers through one parser, [`Lexed::markers`].

use crate::sanitize::sanitize;

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`self`, `fn`, `lock`, …).
    Ident,
    /// Lifetime (`'a`), including the leading quote.
    Lifetime,
    /// Any literal: number, string (delimiters only — contents were
    /// blanked by the sanitizer), or char.
    Literal,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One token, with enough position and scope context for analyses to
/// reason about where it lives.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: usize,
    /// Brace depth: `{` and its matching `}` carry the same depth; the
    /// tokens between them carry depth + 1.
    pub depth: u32,
    /// True when the token sits inside a `#[test]` fn or a
    /// `#[cfg(test)]` region (including the item signature between the
    /// attribute and its opening brace).
    pub in_test: bool,
}

impl Token {
    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// True when this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// A lexed file: the token stream plus the per-line comment text the
/// sanitizer stripped (1-based line `n` is `comments[n - 1]`), which the
/// analyses use to honor `audit:allow` / `audit:ordering` markers.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<String>,
}

impl Lexed {
    /// Comment text attached to 1-based `line` (empty when none).
    pub fn comment_on(&self, line: usize) -> &str {
        line.checked_sub(1)
            .and_then(|i| self.comments.get(i))
            .map(|s| s.as_str())
            .unwrap_or("")
    }

    /// The `(name, reason)` of every `audit:<tag>(<name>): <reason>`
    /// marker in the comment on 1-based `line`, in order. A reason runs
    /// to the next `audit:` marker or the end of the comment; a marker
    /// whose reason is empty is no marker. Which lines to consult is the
    /// caller's choice: `locks` and `atomics` read a site's
    /// own line and the one above, `reach` an item's attributes and doc.
    pub fn markers<'a>(
        &'a self,
        line: usize,
        tag: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        self.comment_on(line)
            .split("audit:")
            .skip(1)
            .filter_map(move |marker| {
                let (name, rest) = marker
                    .strip_prefix(tag)?
                    .strip_prefix('(')?
                    .split_once(')')?;
                let reason = rest.strip_prefix(':')?.trim();
                (!reason.is_empty()).then_some((name.trim(), reason))
            })
    }
}

/// Lex `source` into a token stream with depth and test-region marks.
pub fn lex(source: &str) -> Lexed {
    let sanitized = sanitize(source);
    let comments: Vec<String> = sanitized.iter().map(|l| l.comment.clone()).collect();

    let mut tokens = Vec::new();
    let mut in_string = false;
    for (idx, line) in sanitized.iter().enumerate() {
        in_string = lex_line(&line.code, idx + 1, in_string, &mut tokens);
    }
    mark_depth(&mut tokens);
    mark_test_regions(&mut tokens);
    Lexed { tokens, comments }
}

/// Tokenize one sanitized line. A string literal that spans lines is
/// one token on its first line; `in_string` says the line starts inside
/// such a literal, and the return value whether the next one does. The
/// sanitizer blanked the contents, so the next quote closes it.
fn lex_line(code: &str, line_no: usize, in_string: bool, out: &mut Vec<Token>) -> bool {
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    if in_string {
        match chars.iter().position(|&c| c == '"') {
            Some(close) => i = close + 1,
            None => return true,
        }
    }
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            push(
                out,
                TokKind::Ident,
                chars[start..i].iter().collect(),
                line_no,
            );
        } else if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            // Fractional part: only when a digit follows the dot, so
            // ranges (`0..n`) and tuple access stay separate tokens.
            if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                i += 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            }
            push(
                out,
                TokKind::Literal,
                chars[start..i].iter().collect(),
                line_no,
            );
        } else if c == '"' {
            // Sanitized string: contents are blanks, so the next quote
            // closes it, on this line or a later one.
            push(out, TokKind::Literal, String::from("\"\""), line_no);
            match chars[i + 1..].iter().position(|&c| c == '"') {
                Some(len) => i += len + 2,
                None => return true,
            }
        } else if c == '\'' {
            let next = chars.get(i + 1).copied();
            if next.is_some_and(|n| n.is_alphanumeric() || n == '_') {
                // Lifetime: the sanitizer blanked char-literal contents,
                // so a quote followed by an identifier char is `'a`.
                let start = i;
                i += 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                push(
                    out,
                    TokKind::Lifetime,
                    chars[start..i].iter().collect(),
                    line_no,
                );
            } else {
                let mut j = i + 1;
                while j < chars.len() && chars[j] != '\'' {
                    j += 1;
                }
                i = (j + 1).min(chars.len());
                push(out, TokKind::Literal, String::from("''"), line_no);
            }
        } else {
            push(out, TokKind::Punct, c.to_string(), line_no);
            i += 1;
        }
    }
    false
}

fn push(out: &mut Vec<Token>, kind: TokKind, text: String, line: usize) {
    out.push(Token {
        kind,
        text,
        line,
        depth: 0,
        in_test: false,
    });
}

/// Stamp brace depth: `{` and its matching `}` share a depth.
fn mark_depth(tokens: &mut [Token]) {
    let mut depth: u32 = 0;
    for tok in tokens.iter_mut() {
        if tok.is_punct('{') {
            tok.depth = depth;
            depth += 1;
        } else if tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            tok.depth = depth;
        } else {
            tok.depth = depth;
        }
    }
}

/// Stamp test regions: a `#[test]` or test-carrying `#[cfg(..)]`
/// attribute arms a pending flag; the next `{` opens a region popped by its
/// matching `}`. A `;` at attribute level disarms (attribute on a
/// bodyless item), and so does the `}` that closes the block the
/// attribute sits in (attribute on a struct field or a literal's field:
/// the item cannot outlive its enclosing braces, so the next `{` is
/// somebody else's).
fn mark_test_regions(tokens: &mut [Token]) {
    // Brace depth at which the pending attribute was seen.
    let mut pending: Option<u32> = None;
    let mut stack: Vec<u32> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            if let Some((end, is_test)) = scan_attribute(tokens, i + 1) {
                if is_test {
                    pending = Some(tokens[i].depth);
                }
                for tok in tokens[i..=end].iter_mut() {
                    tok.in_test = tok.in_test || pending.is_some() || !stack.is_empty();
                }
                i = end + 1;
                continue;
            }
        }
        let tok = &mut tokens[i];
        tok.in_test = pending.is_some() || !stack.is_empty();
        if tok.is_punct('{') {
            if pending.take().is_some() {
                stack.push(tok.depth);
            }
        } else if tok.is_punct('}') {
            if stack.last() == Some(&tok.depth) {
                stack.pop();
            }
            if pending.is_some_and(|armed| tok.depth < armed) {
                pending = None;
            }
        } else if tok.is_punct(';') && stack.is_empty() {
            pending = None;
        }
        i += 1;
    }
}

/// Given `open` at the `[` of `#[...]`, return the index of the
/// matching `]` and whether the attribute marks test-only code:
/// `#[test]`, `#[cfg(test)]` and `#[cfg(all(test, ..))]`.
/// `#[cfg(any(test, ..))]` code also builds outside tests, so it is not
/// a test region.
fn scan_attribute(tokens: &[Token], open: usize) -> Option<(usize, bool)> {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                let is_test = matches!(
                    idents.as_slice(),
                    ["test", ..] | ["cfg", "test", ..] | ["cfg", "all", "test", ..]
                );
                return Some((j, is_test));
            }
        } else if tok.kind == TokKind::Ident {
            idents.push(tok.text.as_str());
        }
        // Attributes are short; bail if the stream is malformed.
        if j > open + 256 {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        assert_eq!(
            texts("let x = foo.bar(1, 0.5);"),
            vec!["let", "x", "=", "foo", ".", "bar", "(", "1", ",", "0.5", ")", ";"]
        );
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        assert_eq!(texts("0..n"), vec!["0", ".", ".", "n"]);
        assert_eq!(texts("x.0"), vec!["x", ".", "0"]);
    }

    #[test]
    fn paths_are_single_colon_tokens() {
        assert_eq!(
            texts("Ordering::Relaxed"),
            vec!["Ordering", ":", ":", "Relaxed"]
        );
    }

    #[test]
    fn strings_collapse_to_one_literal() {
        assert_eq!(
            texts(r#"f("has .lock() inside")"#),
            vec!["f", "(", "\"\"", ")"]
        );
    }

    #[test]
    fn raw_strings_and_fences() {
        let toks = texts("let s = r##\"x .lock() \"quote\" y\"##;");
        assert!(!toks.contains(&"lock".to_string()));
        assert!(toks.contains(&"\"\"".to_string()));
    }

    #[test]
    fn multiline_strings_do_not_swallow_code() {
        let toks = texts("let s = \"first\nsecond\";\nlet t = 3;");
        assert_eq!(
            toks,
            vec!["let", "s", "=", "\"\"", ";", "let", "t", "=", "3", ";"]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        assert_eq!(texts("&'a str"), vec!["&", "'a", "str"]);
        assert_eq!(texts("let c = 'x';"), vec!["let", "c", "=", "''", ";"]);
    }

    #[test]
    fn depth_tracks_braces() {
        let lexed = lex("fn f() { if x { y(); } }");
        let find = |s: &str| lexed.tokens.iter().find(|t| t.text == s).unwrap().depth;
        assert_eq!(find("fn"), 0);
        assert_eq!(find("if"), 1);
        assert_eq!(find("y"), 2);
        let braces: Vec<u32> = lexed
            .tokens
            .iter()
            .filter(|t| t.is_punct('{') || t.is_punct('}'))
            .map(|t| t.depth)
            .collect();
        assert_eq!(braces, vec![0, 1, 1, 0]);
    }

    #[test]
    fn line_numbers_survive_multiline_chains() {
        let lexed = lex("self.parked\n    .lock()\n    .retain(|_, _| true);");
        let lock = lexed.tokens.iter().find(|t| t.text == "lock").unwrap();
        assert_eq!(lock.line, 2);
        let retain = lexed.tokens.iter().find(|t| t.text == "retain").unwrap();
        assert_eq!(retain.line, 3);
    }

    #[test]
    fn test_regions_are_marked() {
        let src = "fn live() { a(); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { b(); }\n}\nfn live2() { c(); }";
        let lexed = lex(src);
        let flag = |s: &str| lexed.tokens.iter().find(|t| t.text == s).unwrap().in_test;
        assert!(!flag("a"));
        assert!(flag("b"));
        assert!(!flag("c"));
        // The signature between attribute and brace is covered too.
        assert!(flag("tests"));
    }

    #[test]
    fn test_attribute_on_a_field_does_not_swallow_the_next_block() {
        let src = "struct S {\n    a: u8,\n    #[cfg(all(test, feature = \"x\"))]\n    b: u8,\n}\nimpl S { fn live(&self) { a(); } }";
        let lexed = lex(src);
        let flag = |s: &str| lexed.tokens.iter().find(|t| t.text == s).unwrap().in_test;
        assert!(flag("b"), "the attributed field itself is test-only");
        assert!(
            !flag("live") && !flag("a"),
            "the impl after the struct is not"
        );
    }

    #[test]
    fn non_test_cfg_attributes_do_not_arm() {
        let src = "#[cfg(feature = \"x\")]\nfn f() { a(); }\n#[cfg(any(test, feature = \"x\"))]\nfn g() { b(); }";
        let lexed = lex(src);
        let flag = |s: &str| lexed.tokens.iter().find(|t| t.text == s).unwrap().in_test;
        assert!(!flag("a"));
        assert!(!flag("b"), "`any(test, ..)` also builds outside tests");
    }

    #[test]
    fn bodyless_item_disarms_pending() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() { a(); }";
        let lexed = lex(src);
        assert!(!lexed.tokens.iter().find(|t| t.text == "a").unwrap().in_test);
    }

    #[test]
    fn every_analysis_reads_markers_the_same_way() {
        // One site per analysis, the marker that waives it, and the same
        // tag with a name that must not.
        type Waived = fn(&str) -> bool;
        let analyses: [(&str, &str, &str, Waived); 3] = [
            (
                "fn f() { x.load(Ordering::Relaxed); }",
                "audit:ordering(Relaxed)",
                "audit:ordering(Acquire)",
                |src| crate::atomics::scan_source("crates/x/src/lib.rs", src)[0].annotated(),
            ),
            (
                "fn f(&self) { let g = self.a.lock(); tx.send(1); }",
                "audit:allow(guard-across-io)",
                "audit:allow(unwrap)",
                |src| {
                    crate::locks::analyze_source("crates/x/src/lib.rs", "x/lib", src).smells[0]
                        .waived
                },
            ),
            (
                "pub fn a() {}",
                "audit:allow(unreached)",
                "audit:allow(unwrap)",
                |src| {
                    let files = [("crates/x/src/lib.rs".to_string(), src.to_string())];
                    crate::reach::analyze(&files).waived() == 1
                },
            ),
        ];
        for (site, m, wrong, waived) in analyses {
            let table = [
                (format!("{site} // {m}: same line"), true),
                (format!("// {m}: line above\n{site}"), true),
                (
                    format!("// {m}: two lines above\nlet _ = 0;\n{site}"),
                    false,
                ),
                (format!("{site} // {m}:"), false),
                (format!("{site} // {m}:   "), false),
                (format!("{site} // {m}"), false),
                (format!("{site} // {wrong}: names something else"), false),
                (format!("{site} // {wrong}: first; {m}: second"), true),
                (format!("{site} // {m}: first; {wrong}: second"), true),
                (
                    format!("{site} // {m}: {wrong}: the reason is the second's"),
                    false,
                ),
            ];
            for (src, want) in table {
                assert_eq!(waived(&src), want, "{src}");
            }
        }
    }

    #[test]
    fn comments_are_kept_per_line() {
        let lexed = lex("x(); // audit:allow(unwrap): fine\ny();");
        assert!(lexed.comment_on(1).contains("audit:allow"));
        assert_eq!(lexed.comment_on(2), "");
    }
}
