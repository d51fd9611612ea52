//! A hand-rolled Rust lexer: just enough tokenization for token-pattern
//! lint rules, with none of the grammar.
//!
//! The workspace's vendored dependency set has no `syn`, so spotlint
//! tokenizes source text itself. The lexer understands everything that
//! could *hide* a token from a naive substring scan — line and nested
//! block comments, string/raw-string/byte-string/char literals, lifetimes
//! vs char literals, numeric literals with suffixes — and collapses the
//! rest into a flat token stream with line numbers. Rules then match
//! patterns over that stream, which is why `unwrap_or` never triggers a
//! `unwrap` rule and a `HashMap` inside a doc comment never triggers D2.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`HashMap`, `fn`, `unwrap`, ...).
    Ident(String),
    /// Lifetime (`'a`, `'static`).
    Lifetime(String),
    /// Integer literal, suffix included (`42`, `0xff_u64`).
    Int(String),
    /// Float literal, suffix included (`0.0`, `1e-9`, `2.5f32`).
    Float(String),
    /// String, raw-string or byte-string literal, carrying the raw text
    /// between the quotes (escapes unprocessed; no rule reads the text).
    Str(String),
    /// Char or byte-char literal (content dropped).
    Char,
    /// Operator or punctuation. Multi-character operators that matter to
    /// pattern matching (`::`, `==`, `!=`, `=>`, `->`, `<=`, `>=`) are
    /// kept whole; everything else is a single character.
    Op(&'static str),
    /// Punctuation emitted as a single character (`{`, `(`, `#`, `.`...).
    Punct(char),
}

impl Tok {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(self, Tok::Ident(s) if s == name)
    }

    /// Whether this token is the operator `op`.
    pub fn is_op(&self, op: &str) -> bool {
        matches!(self, Tok::Op(s) if *s == op)
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }

    /// Whether this token is a float literal.
    pub fn is_float(&self) -> bool {
        matches!(self, Tok::Float(_))
    }
}

/// A token plus the 1-indexed source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    pub tok: Tok,
    pub line: usize,
}

/// Tokenizes Rust source text. Unterminated literals and other lexical
/// damage never panic: the lexer degrades to single-character punctuation
/// and keeps going, so a lint pass can always finish.
pub fn lex(src: &str) -> Vec<Spanned> {
    Lexer { b: src.as_bytes(), pos: 0, line: 1, out: Vec::new() }.run()
}

struct Lexer<'a> {
    b: &'a [u8],
    pos: usize,
    line: usize,
    out: Vec<Spanned>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Spanned> {
        while self.pos < self.b.len() {
            let line = self.line;
            let c = self.b[self.pos];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'r' | b'b' if self.raw_or_byte_literal() => {}
                b'\'' => self.char_or_lifetime(line),
                b'0'..=b'9' => self.number(line),
                c if is_ident_start(c) => self.ident(line),
                _ => self.operator(line),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.pos + ahead).copied()
    }

    fn push(&mut self, tok: Tok, line: usize) {
        self.out.push(Spanned { tok, line });
    }

    fn bump_line(&mut self, c: u8) {
        if c == b'\n' {
            self.line += 1;
        }
    }

    fn line_comment(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos] != b'\n' {
            self.pos += 1;
        }
    }

    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.b.len() && depth > 0 {
            if self.b[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.b[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.bump_line(self.b[self.pos]);
                self.pos += 1;
            }
        }
    }

    /// Plain `"..."` string with escapes. Content is irrelevant to every
    /// rule, so only the span (and embedded newlines) are tracked.
    fn string(&mut self) {
        let line = self.line;
        self.pos += 1;
        let start = self.pos;
        let mut end = self.pos;
        while self.pos < self.b.len() {
            match self.b[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    end = self.pos;
                    self.pos += 1;
                    break;
                }
                c => {
                    self.bump_line(c);
                    self.pos += 1;
                }
            }
            end = self.pos;
        }
        let content = String::from_utf8_lossy(&self.b[start..end.min(self.b.len())]).into_owned();
        self.push(Tok::Str(content), line);
    }

    /// Detects and consumes `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`,
    /// `b'x'`. Returns false (consuming nothing) when the `r`/`b` starts a
    /// plain identifier.
    fn raw_or_byte_literal(&mut self) -> bool {
        let line = self.line;
        let start = self.pos;
        let mut i = self.pos;
        if self.b[i] == b'b' {
            i += 1;
            if self.b.get(i) == Some(&b'\'') {
                // Byte char b'x'.
                self.pos = i;
                self.char_or_lifetime(line);
                return true;
            }
        }
        if self.b.get(i) == Some(&b'r') {
            i += 1;
        }
        let mut hashes = 0usize;
        while self.b.get(i) == Some(&b'#') {
            hashes += 1;
            i += 1;
        }
        if self.b.get(i) != Some(&b'"') {
            self.pos = start;
            return false;
        }
        // Raw string (hashes > 0 or an `r"`/`b"` prefix): scan for the
        // closing quote followed by the same number of hashes. An `r`/`b`
        // directly followed by `"` with zero hashes is still a literal
        // (`b"..."` or `r"..."`); escapes are inert inside raw strings but
        // active inside byte strings — b-strings with zero hashes use the
        // escape-aware scan.
        let raw = self.b[start..].starts_with(b"r") || self.b[start..].starts_with(b"br")
            || hashes > 0;
        i += 1; // past the opening quote
        let content_start = i;
        let mut content_end = i;
        while i < self.b.len() {
            let c = self.b[i];
            if !raw && c == b'\\' {
                i += 2;
                continue;
            }
            if c == b'"' {
                let mut j = 0;
                while j < hashes && self.b.get(i + 1 + j) == Some(&b'#') {
                    j += 1;
                }
                if j == hashes {
                    content_end = i;
                    i += 1 + hashes;
                    break;
                }
            }
            if c == b'\n' {
                self.line += 1;
            }
            i += 1;
            content_end = i;
        }
        self.pos = i;
        let content = String::from_utf8_lossy(
            &self.b[content_start..content_end.min(self.b.len())],
        )
        .into_owned();
        self.push(Tok::Str(content), line);
        true
    }

    /// `'a'` / `'\n'` are char literals; `'a` / `'static` are lifetimes.
    fn char_or_lifetime(&mut self, line: usize) {
        self.pos += 1; // past the quote
        if self.peek(0) == Some(b'\\') {
            // Escaped char literal: consume to the closing quote.
            self.pos += 2;
            while self.pos < self.b.len() && self.b[self.pos] != b'\'' {
                self.pos += 1;
            }
            self.pos += 1;
            self.push(Tok::Char, line);
            return;
        }
        // `'x'` → char; `'ident` not followed by `'` → lifetime.
        let mut end = self.pos;
        while end < self.b.len() && is_ident_continue(self.b[end]) {
            end += 1;
        }
        if self.b.get(end) == Some(&b'\'') && end > self.pos {
            self.pos = end + 1;
            self.push(Tok::Char, line);
        } else if self.b.get(self.pos).copied().is_some_and(is_ident_start) {
            let name = String::from_utf8_lossy(&self.b[self.pos..end]).into_owned();
            self.pos = end;
            self.push(Tok::Lifetime(name), line);
        } else {
            // Something like `'(` — lexically broken; emit punctuation.
            self.push(Tok::Punct('\''), line);
        }
    }

    fn number(&mut self, line: usize) {
        let start = self.pos;
        let mut float = false;
        if self.b[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'x' | b'X' | b'b' | b'B' | b'o' | b'O'))
        {
            self.pos += 2;
            while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                self.pos += 1;
            }
        } else {
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == b'_') {
                self.pos += 1;
            }
            // A dot makes it a float only when a digit follows (so `0.max`
            // and `0..n` stay integer + punctuation).
            if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                float = true;
                self.pos += 1;
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == b'_') {
                    self.pos += 1;
                }
            }
            // Exponent: `1e9`, `2.5E-3`.
            if matches!(self.peek(0), Some(b'e' | b'E'))
                && (self.peek(1).is_some_and(|c| c.is_ascii_digit())
                    || (matches!(self.peek(1), Some(b'+' | b'-'))
                        && self.peek(2).is_some_and(|c| c.is_ascii_digit())))
            {
                float = true;
                self.pos += 1;
                if matches!(self.peek(0), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == b'_') {
                    self.pos += 1;
                }
            }
            // Type suffix (`u64`, `f64`): a float suffix also floats an
            // integer-looking literal (`1f64`).
            if self.peek(0).is_some_and(is_ident_start) {
                let suffix_start = self.pos;
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.pos += 1;
                }
                if self.b[suffix_start..self.pos].starts_with(b"f") {
                    float = true;
                }
            }
        }
        let text = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
        self.push(if float { Tok::Float(text) } else { Tok::Int(text) }, line);
    }

    fn ident(&mut self, line: usize) {
        let start = self.pos;
        while self.peek(0).is_some_and(is_ident_continue) {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
        self.push(Tok::Ident(text), line);
    }

    fn operator(&mut self, line: usize) {
        const TWO: [&str; 7] = ["::", "==", "!=", "<=", ">=", "->", "=>"];
        if let Some(next) = self.peek(1) {
            let pair = [self.b[self.pos], next];
            if let Some(op) = TWO.iter().find(|t| t.as_bytes() == pair) {
                self.pos += 2;
                self.push(Tok::Op(op), line);
                return;
            }
        }
        let c = self.b[self.pos] as char;
        self.pos += 1;
        self.push(Tok::Punct(c), line);
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Marks the token ranges belonging to test code: a `#[cfg(test)]`
/// attribute and the item (almost always `mod tests { ... }`) it gates.
/// Lint rules skip these ranges — the equivalence suites *intentionally*
/// compare floats bit-for-bit and `unwrap()` freely.
pub fn test_regions(toks: &[Spanned]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            let start = i;
            // Skip this and any further attributes.
            while i < toks.len() && toks[i].tok.is_punct('#') {
                i = skip_attr(toks, i);
            }
            // Find the gated item's opening brace and skip its block.
            while i < toks.len() && !toks[i].tok.is_punct('{') {
                // A `;`-terminated item (`#[cfg(test)] mod tests;`) has no
                // inline block to skip.
                if toks[i].tok.is_punct(';') {
                    break;
                }
                i += 1;
            }
            if i < toks.len() && toks[i].tok.is_punct('{') {
                let mut depth = 0usize;
                while i < toks.len() {
                    if toks[i].tok.is_punct('{') {
                        depth += 1;
                    } else if toks[i].tok.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i += 1;
                }
            }
            regions.push((start, i.min(toks.len().saturating_sub(1))));
        }
        i += 1;
    }
    regions
}

/// Whether the token at `i` starts a `#[cfg(test)]` (or `#[cfg(all(test,
/// ...))]` etc. — any attribute containing the bare `test` ident inside a
/// `cfg(...)`) attribute.
fn is_cfg_test_attr(toks: &[Spanned], i: usize) -> bool {
    if !(toks[i].tok.is_punct('#') && toks.get(i + 1).is_some_and(|t| t.tok.is_punct('['))) {
        return false;
    }
    if !toks.get(i + 2).is_some_and(|t| t.tok.is_ident("cfg")) {
        return false;
    }
    let end = skip_attr(toks, i);
    toks[i..end].iter().any(|t| t.tok.is_ident("test"))
}

/// Index one past the attribute starting at `i` (`#` `[` ... `]`).
fn skip_attr(toks: &[Spanned], i: usize) -> usize {
    let mut j = i + 1;
    if !toks.get(j).is_some_and(|t| t.tok.is_punct('[')) {
        return i + 1;
    }
    let mut depth = 0usize;
    while j < toks.len() {
        if toks[j].tok.is_punct('[') {
            depth += 1;
        } else if toks[j].tok.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| t.tok.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // HashMap in a line comment
            /* HashMap /* nested */ still comment */
            let s = "HashMap in a string";
            let r = r#"HashMap in a raw string"#;
            let b = b"HashMap bytes";
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "HashMap").count(), 1);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let ids = idents("x.unwrap_or(1); y.unwrap();");
        assert_eq!(ids, vec!["x", "unwrap_or", "y", "unwrap"]);
    }

    #[test]
    fn float_vs_int_vs_range() {
        let toks = lex("a == 0.0; b == 0; 0..n; 1e-9; 0.max(1); 2.5f32; 1f64; 0xff");
        let floats: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Float(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(floats, vec!["0.0", "1e-9", "2.5f32", "1f64"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let s = 's'; }");
        let lifetimes = toks.iter().filter(|t| matches!(t.tok, Tok::Lifetime(_))).count();
        let chars = toks.iter().filter(|t| matches!(t.tok, Tok::Char)).count();
        assert_eq!((lifetimes, chars), (2, 2));
    }

    #[test]
    fn multichar_operators_stay_whole() {
        let toks = lex("a == b != c :: d");
        let ops: Vec<_> = toks
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Op(o) => Some(o),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec!["==", "!=", "::"]);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "let a = 1;\nlet s = \"two\nlines\";\nlet b = 2;";
        let toks = lex(src);
        let b_line = toks
            .iter()
            .find(|t| t.tok.is_ident("b"))
            .map(|t| t.line)
            .unwrap();
        assert_eq!(b_line, 4);
    }

    #[test]
    fn cfg_test_regions_cover_the_mod_block() {
        let src = r#"
            fn shipping() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn helper() { y.unwrap(); }
            }
            fn also_shipping() {}
        "#;
        let toks = lex(src);
        let regions = test_regions(&toks);
        assert_eq!(regions.len(), 1);
        let (s, e) = regions[0];
        let inside: Vec<_> = toks[s..=e]
            .iter()
            .filter_map(|t| t.tok.ident().map(str::to_string))
            .collect();
        assert!(inside.contains(&"helper".to_string()));
        assert!(!inside.contains(&"shipping".to_string()));
        assert!(!inside.contains(&"also_shipping".to_string()));
    }
}
