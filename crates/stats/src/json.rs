//! The workspace's one JSON codec.
//!
//! Every JSON byte the harness writes — reports, the derived block,
//! telemetry traces, Chrome traces, `trace summarize --json`, weight
//! files — goes through [`push_str`] and [`push_num`], and every JSON
//! text it reads back goes through [`Parser`]. There is no JSON
//! dependency: the shapes are fixed, so writers emit them directly and
//! readers pull exactly the values they expect.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Append `s` as a quoted JSON string: `"` and `\` escaped, `\n`, `\r`
/// and `\t` by their short escapes, every other control character as
/// `\u00XX`. Everything else, non-ASCII included, is written as is.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    let mut done = 0;
    // Every byte that needs escaping is ASCII, so `i` is a char boundary.
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[done..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        done = i + 1;
    }
    out.push_str(&s[done..]);
    out.push('"');
}

/// Append `v` in Rust's shortest round-trip form, or `null` when it is
/// not finite (JSON has no NaN or infinity).
pub fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A pull parser over one JSON text. The caller asks for the value it
/// expects next — an object's fields, a string, a number, an array —
/// and gets an `Err` with a readable reason when the text holds
/// something else. Whitespace between tokens is skipped.
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Parser { text, pos: 0 }
    }

    fn skip_ws(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest.iter().take_while(|b| b.is_ascii_whitespace()).count();
    }

    /// The next non-blank byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, want: u8) -> bool {
        let hit = self.peek() == Some(want);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.eat(want) {
            return Ok(());
        }
        let got = self.text[self.pos..].chars().next();
        Err(format!("expected {:?}, got {got:?}", char::from(want)))
    }

    /// Walk one object: `field` is called with each key, positioned at
    /// its value, and must consume that value.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.str()?;
            self.expect(b':')?;
            field(self, &key)?;
            if !self.eat(b',') {
                return self.expect(b'}');
            }
        }
    }

    /// Parse an array whose elements `elem` reads.
    pub fn array<T>(
        &mut self,
        mut elem: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.eat(b']') {
            return Ok(out);
        }
        loop {
            out.push(elem(self)?);
            if !self.eat(b',') {
                self.expect(b']')?;
                return Ok(out);
            }
        }
    }

    /// A string, borrowed from the text when it holds no escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let text = self.text;
        let mut owned = String::new();
        loop {
            let rest = &text.as_bytes()[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
            let run = run.ok_or("unterminated string")?;
            let chunk = &text[self.pos..self.pos + run];
            self.pos += run + 2;
            if rest[run] == b'"' {
                self.pos -= 1;
                // Every escape adds a char, so an empty buffer saw none.
                if owned.is_empty() {
                    return Ok(Cow::Borrowed(chunk));
                }
                owned.push_str(chunk);
                return Ok(Cow::Owned(owned));
            }
            owned.push_str(chunk);
            owned.push(match rest.get(run + 1) {
                Some(b'u') => self.hex4()?,
                Some(&b @ (b'"' | b'\\' | b'/')) => char::from(b),
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                other => return Err(format!("bad escape {:?}", other.map(|&b| char::from(b)))),
            });
        }
    }

    /// The four digits of a `\uXXXX` escape; a surrogate, which only a
    /// pair could complete, reads as U+FFFD.
    fn hex4(&mut self) -> Result<char, String> {
        let digits = self.text.get(self.pos..self.pos + 4).unwrap_or("");
        let code = u32::from_str_radix(digits, 16).ok();
        let code = code.filter(|_| digits.bytes().all(|b| b.is_ascii_hexdigit()));
        self.pos += 4;
        let code = code.ok_or_else(|| format!("bad \\u escape {digits:?}"))?;
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// The text of the number at the cursor.
    fn number(&mut self) -> Result<&'a str, String> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            let got = self.text[self.pos..].chars().next();
            return Err(format!("expected number, got {got:?}"));
        }
        let start = self.pos;
        let len = self.text.as_bytes()[start..]
            .iter()
            .take_while(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        self.pos = start + len;
        Ok(&self.text[start..self.pos])
    }

    /// A number as `f64`; `null` (how [`push_num`] writes a non-finite
    /// value) reads as NaN.
    pub fn f64_or_null(&mut self) -> Result<f64, String> {
        if self.peek() == Some(b'n') && self.text[self.pos..].starts_with("null") {
            self.pos += 4;
            return Ok(f64::NAN);
        }
        let n = self.number()?;
        n.parse().map_err(|e| format!("bad number {n:?}: {e}"))
    }

    /// An unsigned integer, exact over the whole `u64` range (no detour
    /// through `f64`, which rounds above 2⁵³).
    pub fn u64(&mut self) -> Result<u64, String> {
        let n = self.number()?;
        n.parse()
            .map_err(|_| format!("expected unsigned integer, got {n:?}"))
    }

    /// Succeed only when nothing but whitespace is left.
    pub fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing data at byte {}", self.pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        push_str(&mut out, s);
        out
    }

    #[test]
    fn strings_escape_and_read_back() {
        assert_eq!(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quoted("\u{1}\t\r é"), "\"\\u0001\\t\\r é\"");
        for s in ["", "plain", "a\"b\\c", "\u{0}\u{1f}\n\r\t", "ü🦀/"] {
            let text = quoted(s);
            assert_eq!(Parser::new(&text).str().unwrap(), s);
        }
        // Borrowed when there is nothing to unescape.
        assert!(matches!(
            Parser::new("\"abc\"").str(),
            Ok(Cow::Borrowed("abc"))
        ));
        // Escapes no writer here emits; a surrogate reads as U+FFFD.
        let s = Parser::new(r#""\/\b\f\u00e9\ud83d\ude00x""#).str().unwrap();
        assert_eq!(s, "/\u{8}\u{c}é\u{fffd}\u{fffd}x");
        for bad in [r#""abc"#, r#""\q""#, r#""\u12""#, r#""\uzzzz""#] {
            assert!(Parser::new(bad).str().is_err(), "{bad}");
        }
    }

    #[test]
    fn numbers_write_and_read_back() {
        let num = |v: f64| {
            let mut out = String::new();
            push_num(&mut out, v);
            out
        };
        assert_eq!(num(0.5), "0.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        assert!(Parser::new(" null").f64_or_null().unwrap().is_nan());
        assert_eq!(Parser::new("-2e-3").f64_or_null().unwrap(), -2e-3);
        assert_eq!(Parser::new("18446744073709551614").u64(), Ok(u64::MAX - 1));
        assert_eq!(Parser::new("9007199254740993").u64(), Ok((1 << 53) + 1));
        for bad in ["-1", "1.5", "1e3", "x", "18446744073709551616"] {
            assert!(Parser::new(bad).u64().is_err(), "{bad}");
        }
        assert!(Parser::new("nul").f64_or_null().is_err());
    }

    #[test]
    fn objects_and_arrays_pull_in_order() {
        let mut p = Parser::new(" { \"a\" : [1, 2] , \"b\":\"x\" } ");
        let mut seen = Vec::new();
        p.object(|p, key| {
            match key {
                "a" => seen.push(format!("{:?}", p.array(Parser::u64)?)),
                _ => seen.push(p.str()?.into_owned()),
            }
            Ok(())
        })
        .unwrap();
        p.end().unwrap();
        assert_eq!(seen, ["[1, 2]", "x"]);
        assert_eq!(Parser::new("[]").array(Parser::u64), Ok(vec![]));
        assert!(Parser::new("{}x").object(|_, _| Ok(())).is_ok());
        let mut p = Parser::new("{}x");
        p.object(|_, _| Ok(())).unwrap();
        assert!(p.end().unwrap_err().contains("trailing"));
        for bad in ["{\"a\":1", "{\"a\" 1}", "[1 2]", "[1,]", ""] {
            let mut p = Parser::new(bad);
            let r = match bad.starts_with('[') {
                true => p.array(Parser::u64).map(drop),
                false => p.object(|p, _| p.u64().map(drop)),
            };
            assert!(r.is_err(), "{bad}");
        }
    }
}
