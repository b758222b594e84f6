//! A hand-rolled Rust lexer — the same idiom as the SQL lexer in
//! `pgdesign-query` (`parser.rs`), scaled up to Rust's token grammar.
//!
//! The analyzer needs a *token* view of every source file, not a parse
//! tree: rules match on token shapes (an identifier followed by `(` is a
//! call site, a `[` after an expression is an index), and comments are
//! kept as first-class tokens because the `// analyzer:allow(...)` escape
//! hatch lives in them.
//! Crucially, string literals lex as single opaque tokens, so a pattern
//! like `".unwrap("` appearing *inside a string* (as it does in this very
//! crate) can never be mistaken for a call site.
//!
//! Handled Rust surface: line + nested block comments, doc comments,
//! string/char/byte/raw-string literals (any `#` depth), lifetimes vs
//! char literals, raw identifiers, numeric literals with suffixes, and
//! maximal-munch compound operators.

/// Token classes the rule engine distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`fn`, `unsafe`, `for` are idents here;
    /// keyword-ness is decided by the fact extractor where it matters).
    Ident,
    /// `'a` — distinguished from char literals.
    Lifetime,
    /// Any numeric literal.
    Number,
    /// Any string, char, byte, or raw-string literal, as one opaque token.
    Str,
    /// Line or block comment, including doc comments. Text excludes the
    /// delimiters.
    Comment,
    /// One operator or delimiter, compound ops pre-joined (`::`, `+=`).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Kind,
    pub text: String,
    pub line: u32,
}

impl Token {
    pub fn is(&self, kind: Kind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }

    pub fn is_punct(&self, text: &str) -> bool {
        self.is(Kind::Punct, text)
    }

    pub fn is_ident(&self, text: &str) -> bool {
        self.is(Kind::Ident, text)
    }
}

/// Compound operators, longest first so maximal munch wins.
const COMPOUND_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "|=", "&=", "..",
];

/// Tokenize `src`. The lexer is total: bytes it cannot classify become
/// single-character `Punct` tokens, so analysis degrades instead of
/// failing on exotic input.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.src.len() {
            let line = self.line;
            let c = self.src[self.pos];
            match c {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(line),
                b'"' => self.string_literal(line),
                b'\'' => self.quote(line),
                b'b' | b'r' if self.starts_literal_prefix() => self.prefixed_literal(line),
                _ if c == b'_' || c.is_ascii_alphabetic() => self.ident(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ => self.punct(line),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: Kind, text: String, line: u32) {
        self.out.push(Token { kind, text, line });
    }

    fn bump_lines(&mut self, from: usize, to: usize) {
        for &b in self.src.get(from..to).unwrap_or(&[]) {
            if b == b'\n' {
                self.line += 1;
            }
        }
    }

    fn line_comment(&mut self, line: u32) {
        let start = self.pos + 2;
        let mut end = start;
        while end < self.src.len() && self.src[end] != b'\n' {
            end += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..end]).into_owned();
        self.push(Kind::Comment, text, line);
        self.pos = end;
    }

    fn block_comment(&mut self, line: u32) {
        // Rust block comments nest.
        let start = self.pos + 2;
        let mut depth = 1usize;
        let mut i = start;
        while i < self.src.len() && depth > 0 {
            if self.src[i] == b'/' && self.src.get(i + 1) == Some(&b'*') {
                depth += 1;
                i += 2;
            } else if self.src[i] == b'*' && self.src.get(i + 1) == Some(&b'/') {
                depth -= 1;
                i += 2;
            } else {
                i += 1;
            }
        }
        let body_end = i.saturating_sub(2).max(start);
        let text = String::from_utf8_lossy(&self.src[start..body_end]).into_owned();
        self.bump_lines(self.pos, i);
        self.push(Kind::Comment, text, line);
        self.pos = i;
    }

    /// `"..."` with escapes.
    fn string_literal(&mut self, line: u32) {
        let mut i = self.pos + 1;
        while i < self.src.len() {
            match self.src[i] {
                b'\\' => i += 2,
                b'"' => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }
        self.bump_lines(self.pos, i);
        self.push(Kind::Str, String::new(), line);
        self.pos = i;
    }

    /// `'a` lifetime, `'x'` / `'\n'` char literal.
    fn quote(&mut self, line: u32) {
        let next = self.peek(1);
        if next == Some(b'\\') {
            // Escaped char literal: skip to closing quote.
            let mut i = self.pos + 2;
            if i < self.src.len() {
                i += 1; // the escaped char
            }
            while i < self.src.len() && self.src[i] != b'\'' {
                i += 1;
            }
            self.pos = (i + 1).min(self.src.len());
            self.push(Kind::Str, String::new(), line);
            return;
        }
        // `'ident` — lifetime unless a closing quote follows immediately
        // after a single char (then it is a char literal like 'a').
        if next.is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric()) {
            let mut i = self.pos + 1;
            while i < self.src.len() && (self.src[i] == b'_' || self.src[i].is_ascii_alphanumeric())
            {
                i += 1;
            }
            if self.src.get(i) == Some(&b'\'') {
                self.pos = i + 1;
                self.push(Kind::Str, String::new(), line);
            } else {
                let text = String::from_utf8_lossy(&self.src[self.pos..i]).into_owned();
                self.pos = i;
                self.push(Kind::Lifetime, text, line);
            }
            return;
        }
        // Non-alphanumeric char literal like '(' or unrecognized quote.
        let mut i = self.pos + 1;
        while i < self.src.len() && self.src[i] != b'\'' && self.src[i] != b'\n' {
            i += 1;
        }
        self.pos = (i + 1).min(self.src.len());
        self.push(Kind::Str, String::new(), line);
    }

    /// Does `b` / `r` / `br` / `rb` at `pos` start a literal (string or
    /// raw string/identifier) rather than a plain identifier?
    fn starts_literal_prefix(&self) -> bool {
        let c0 = self.src[self.pos];
        match (c0, self.peek(1)) {
            (b'b', Some(b'"')) | (b'b', Some(b'\'')) => true,
            (b'r', Some(b'"')) | (b'r', Some(b'#')) => true,
            (b'b', Some(b'r')) if matches!(self.peek(2), Some(b'"') | Some(b'#')) => true,
            _ => false,
        }
    }

    /// `b"..."`, `r"..."`, `r#"..."#`, `br#"..."#`, `b'x'`, `r#ident`.
    fn prefixed_literal(&mut self, line: u32) {
        let mut i = self.pos;
        while i < self.src.len() && (self.src[i] == b'b' || self.src[i] == b'r') {
            i += 1;
        }
        let mut hashes = 0usize;
        while self.src.get(i) == Some(&b'#') {
            hashes += 1;
            i += 1;
        }
        match self.src.get(i) {
            Some(b'"') => {
                // Raw or plain string: find closing `"` + `hashes` hashes.
                i += 1;
                loop {
                    match self.src.get(i) {
                        None => break,
                        Some(b'\\') if hashes == 0 => i += 2,
                        Some(b'"') => {
                            let mut j = i + 1;
                            let mut seen = 0usize;
                            while seen < hashes && self.src.get(j) == Some(&b'#') {
                                seen += 1;
                                j += 1;
                            }
                            if seen == hashes {
                                i = j;
                                break;
                            }
                            i += 1;
                        }
                        Some(_) => i += 1,
                    }
                }
                self.bump_lines(self.pos, i);
                self.push(Kind::Str, String::new(), line);
                self.pos = i;
            }
            Some(b'\'') => {
                // b'x' byte literal.
                i += 1;
                while i < self.src.len() && self.src[i] != b'\'' {
                    if self.src[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                self.pos = (i + 1).min(self.src.len());
                self.push(Kind::Str, String::new(), line);
            }
            _ if hashes > 0 => {
                // r#ident raw identifier.
                let start = i;
                while i < self.src.len()
                    && (self.src[i] == b'_' || self.src[i].is_ascii_alphanumeric())
                {
                    i += 1;
                }
                let text = String::from_utf8_lossy(&self.src[start..i]).into_owned();
                self.push(Kind::Ident, text, line);
                self.pos = i;
            }
            _ => {
                // Plain identifier starting with b/r after all.
                self.ident(line);
            }
        }
    }

    fn ident(&mut self, line: u32) {
        let start = self.pos;
        let mut i = start;
        while i < self.src.len() && (self.src[i] == b'_' || self.src[i].is_ascii_alphanumeric()) {
            i += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..i]).into_owned();
        self.push(Kind::Ident, text, line);
        self.pos = i;
    }

    fn number(&mut self, line: u32) {
        let start = self.pos;
        let mut i = start;
        // Digits, underscores, hex/bin/oct prefixes, float parts, type
        // suffixes — one greedy run is enough for token boundaries.
        while i < self.src.len() {
            let b = self.src[i];
            let in_number = b == b'_'
                || b.is_ascii_alphanumeric()
                || (b == b'.' && self.src.get(i + 1).is_some_and(|d| d.is_ascii_digit()));
            if !in_number {
                break;
            }
            i += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..i]).into_owned();
        self.push(Kind::Number, text, line);
        self.pos = i;
    }

    fn punct(&mut self, line: u32) {
        let rest = &self.src[self.pos..];
        for op in COMPOUND_OPS {
            if rest.starts_with(op.as_bytes()) {
                self.push(Kind::Punct, (*op).to_string(), line);
                self.pos += op.len();
                return;
            }
        }
        let c = self.src[self.pos] as char;
        self.push(Kind::Punct, c.to_string(), line);
        self.pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Kind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_are_opaque() {
        let toks = kinds(r#"let s = ".unwrap(";"#);
        assert!(toks.iter().any(|(k, _)| *k == Kind::Str));
        assert!(!toks.iter().any(|(_, t)| t == "unwrap"));
    }

    #[test]
    fn raw_strings_and_bytes() {
        let toks = kinds(r###"let s = r#"x[i].unwrap()"#; let b = b"idx[0]";"###);
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Str).count(), 2);
        assert!(!toks.iter().any(|(_, t)| t == "unwrap" || t == "idx"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Str).count(), 2);
    }

    #[test]
    fn nested_block_comments_and_doc_comments() {
        let toks = kinds("/* a /* b */ c */ fn x() {} // tail\n/// doc\nfn y() {}");
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Comment).count(), 3);
        assert_eq!(toks.iter().filter(|(_, t)| t == "fn").count(), 2);
    }

    #[test]
    fn compound_ops_munch_maximally() {
        let toks = kinds("a += b; c..=d; e::f; g -> h;");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == Kind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert!(puncts.contains(&"+="));
        assert!(puncts.contains(&"..="));
        assert!(puncts.contains(&"::"));
        assert!(puncts.contains(&"->"));
    }

    #[test]
    fn lines_are_tracked_through_multiline_tokens() {
        let toks = lex("fn a() {}\n/* x\ny */\nfn b() {}");
        let b = toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 4);
    }
}
