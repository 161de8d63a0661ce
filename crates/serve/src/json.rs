//! Wire JSON without a tree: a streaming writer and a borrowing parser.
//!
//! The workspace carries no serde, and the serve protocol needs both
//! directions (the daemon decodes requests and encodes responses; the
//! client does the reverse), so this module implements just enough
//! JSON, building no owned value tree either way:
//!
//! - `JsonWriter` appends compact single-line JSON straight into a
//!   caller-owned `String`, so a session that reuses one buffer encodes
//!   a reply without allocating. A `Wire` value writes itself there and
//!   reads itself back from a [`Node`]. Floats use the shortest
//!   round-trip form (Rust's `{}` for `f64`), non-finite floats become
//!   `null`, and integers above 2^53 are written as the `f64` a JSON
//!   number carries.
//! - [`Doc::parse`] validates a whole document in one pass into a flat
//!   tape of tokens. Keys and escape-free strings stay `&str` slices of
//!   the input; only strings with escapes are allocated. A [`Node`] walks
//!   the tape with the accessors a tree would offer, and
//!   [`Node::get`] keeps the last of duplicate keys.
//!
//! The full value grammar parses, including `\uXXXX` escapes with
//! surrogate pairs. No comments, no trailing commas, no NaN/Infinity —
//! by design, since none of those survive a round trip through other
//! tooling. The parser does not recurse (open containers are chained
//! through the tape), so deeply nested input cannot overflow a thread's
//! stack.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use crate::protocol::ProtocolError;

// ---------------------------------------------------------------- writer

/// A value with a wire form: one declaration gives both its encoder
/// and its decoder. Scalars, lists, optional and boxed values are here;
/// `protocol` declares the message shapes.
pub(crate) trait Wire {
    /// Appends this value as one JSON value.
    fn put(&self, w: &mut JsonWriter<'_>);

    /// Reads a value from `v`, the value of member `key`. A mistyped
    /// value is an error naming `key`.
    fn take(v: Node<'_>, key: &str) -> Result<Self, ProtocolError>
    where
        Self: Sized;

    /// Whether a member holding this value is left off the wire.
    fn absent(&self) -> bool {
        false
    }
}

/// The error for member `key` holding something other than `what`.
pub(crate) fn mistyped(key: &str, what: &str) -> ProtocolError {
    ProtocolError(format!("'{key}' must be {what}"))
}

impl Wire for str {
    fn put(&self, w: &mut JsonWriter<'_>) {
        w.raw(|out| write_escaped(out, self));
    }
}

impl Wire for String {
    fn put(&self, w: &mut JsonWriter<'_>) {
        self.as_str().put(w);
    }

    fn take(v: Node<'_>, key: &str) -> Result<String, ProtocolError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| mistyped(key, "a string"))
    }
}

impl Wire for bool {
    fn put(&self, w: &mut JsonWriter<'_>) {
        w.raw(|out| out.push_str(if *self { "true" } else { "false" }));
    }

    fn take(v: Node<'_>, key: &str) -> Result<bool, ProtocolError> {
        v.as_bool().ok_or_else(|| mistyped(key, "a boolean"))
    }
}

impl Wire for f64 {
    fn put(&self, w: &mut JsonWriter<'_>) {
        w.raw(|out| write_f64(out, *self));
    }

    fn take(v: Node<'_>, key: &str) -> Result<f64, ProtocolError> {
        v.as_f64().ok_or_else(|| mistyped(key, "a number"))
    }
}

macro_rules! wire_int {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut JsonWriter<'_>) {
                w.raw(|out| write_u64(out, *self as u64));
            }

            fn take(v: Node<'_>, key: &str) -> Result<$t, ProtocolError> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| mistyped(key, "a non-negative integer"))?;
                <$t>::try_from(n)
                    .map_err(|_| ProtocolError(format!("'{key}' out of range")))
            }
        }
    )+};
}

wire_int!(u64, usize, u32, u8);

impl<T: Wire> Wire for [T] {
    fn put(&self, w: &mut JsonWriter<'_>) {
        w.arr(|w| {
            for item in self {
                item.put(w);
            }
        });
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().put(w);
    }

    fn take(v: Node<'_>, key: &str) -> Result<Vec<T>, ProtocolError> {
        v.items()
            .ok_or_else(|| mistyped(key, "an array"))?
            .map(|item| T::take(item, key))
            .collect()
    }
}

/// Absent when `None`; a present member must hold a `T`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut JsonWriter<'_>) {
        if let Some(value) = self {
            value.put(w);
        }
    }

    fn take(v: Node<'_>, key: &str) -> Result<Option<T>, ProtocolError> {
        T::take(v, key).map(Some)
    }

    fn absent(&self) -> bool {
        self.is_none()
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut JsonWriter<'_>) {
        (**self).put(w);
    }

    fn take(v: Node<'_>, key: &str) -> Result<Box<T>, ProtocolError> {
        T::take(v, key).map(Box::new)
    }
}

/// Floats use the shortest round-trip form (the digits `{}` prints);
/// non-finite ones become `null`.
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        // Not representable in JSON; null is the least-bad lossy
        // choice and never occurs for protocol data (specs validate
        // finiteness).
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 1e15 && !(v == 0.0 && v.is_sign_negative()) {
        // Integral: the same digits `{}` prints, without the float
        // formatter.
        if v < 0.0 {
            out.push('-');
        }
        write_digits(out, v.abs() as u64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// A JSON number is an f64: beyond 2^53 the wire carries the nearest
/// double, exactly as an `f64` would print.
fn write_u64(out: &mut String, n: u64) {
    if n > 1 << 53 {
        write_f64(out, n as f64);
    } else {
        write_digits(out, n);
    }
}

fn write_digits(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &digit in &buf[i..] {
        out.push(char::from(digit));
    }
}

/// Writes `s` JSON-escaped, with surrounding quotes. Runs of bytes that
/// need no escape are copied whole.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends one compact JSON document to a caller-owned buffer as it is
/// described: no intermediate value tree, no per-key allocation. Keys
/// and values are separated automatically; nesting is a closure
/// (`w.key("point").obj(|w| …)`).
pub(crate) struct JsonWriter<'b> {
    out: &'b mut String,
    /// Whether the next key or array element needs a leading comma.
    comma: bool,
}

impl<'b> JsonWriter<'b> {
    /// A writer appending to `out`.
    pub(crate) fn new(out: &'b mut String) -> Self {
        JsonWriter { out, comma: false }
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// Writes an object key; the next value written is its value.
    pub(crate) fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        write_escaped(self.out, key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes one value (an object member's value after
    /// [`JsonWriter::key`], or an array element).
    pub(crate) fn value<T: Wire + ?Sized>(&mut self, value: &T) -> &mut Self {
        value.put(self);
        self
    }

    /// Writes one `"key":value` member, unless the value is absent.
    pub(crate) fn field<T: Wire + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        if !value.absent() {
            self.key(key).value(value);
        }
        self
    }

    /// Writes one scalar with `write`.
    fn raw(&mut self, write: impl FnOnce(&mut String)) -> &mut Self {
        self.separate();
        write(self.out);
        self.comma = true;
        self
    }

    /// Writes an object whose members `body` writes.
    pub(crate) fn obj(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', body)
    }

    /// Writes an array whose elements `body` writes.
    pub(crate) fn arr(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', body)
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }
}

// ---------------------------------------------------------------- parser

/// Parse failure: a message plus the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// One tape token. Containers hold the tape index just past their last
/// token, so a walker skips a nested value in one step; an object's
/// members follow its header as key (`Str`) / value pairs.
#[derive(Debug, PartialEq)]
enum Tok<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
    Arr(usize),
    Obj(usize),
}

/// A parsed JSON document: the flat token tape of one input line,
/// borrowing its strings from that line.
#[derive(Debug)]
pub struct Doc<'a> {
    tape: Vec<Tok<'a>>,
}

impl<'a> Doc<'a> {
    /// Parses one complete JSON document (surrounding whitespace
    /// allowed, trailing garbage not).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first offending byte.
    pub fn parse(text: &'a str) -> Result<Doc<'a>, JsonError> {
        let mut p = Parser {
            text,
            at: 0,
            // About one token per 8 bytes of a protocol line.
            tape: Vec::with_capacity(text.len() / 8 + 4),
            open: None,
        };
        p.skip_ws();
        p.document()?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(Doc { tape: p.tape })
    }

    /// The document's top-level value.
    pub fn root(&self) -> Node<'_> {
        Node {
            tape: &self.tape,
            at: 0,
        }
    }
}

/// One value inside a [`Doc`]: a cheap copyable cursor.
#[derive(Debug, Clone, Copy)]
pub struct Node<'d> {
    tape: &'d [Tok<'d>],
    at: usize,
}

impl<'d> Node<'d> {
    fn tok(self) -> &'d Tok<'d> {
        &self.tape[self.at]
    }

    /// Tape index just past this value.
    fn end(self) -> usize {
        match self.tok() {
            Tok::Arr(end) | Tok::Obj(end) => *end,
            _ => self.at + 1,
        }
    }

    /// The value of `key`, when this is an object that has it; the last
    /// occurrence wins when the key repeats.
    pub fn get(self, key: &str) -> Option<Node<'d>> {
        let Tok::Obj(end) = *self.tok() else {
            return None;
        };
        let (mut at, mut found) = (self.at + 1, None);
        while at < end {
            let value = Node {
                tape: self.tape,
                at: at + 1,
            };
            if matches!(&self.tape[at], Tok::Str(k) if k == key) {
                found = Some(value);
            }
            at = value.end();
        }
        found
    }

    /// The members of an object in document order, duplicates included
    /// (none when this is not an object).
    pub fn fields(self) -> impl Iterator<Item = (&'d str, Node<'d>)> {
        let end = match self.tok() {
            Tok::Obj(end) => *end,
            _ => self.at + 1,
        };
        // Keys are `Str` tokens, each followed by its value.
        let mut run = self.values_until(end);
        std::iter::from_fn(move || Some((run.next()?.as_str()?, run.next()?)))
    }

    /// The elements of an array, when this is one.
    pub fn items(self) -> Option<impl Iterator<Item = Node<'d>>> {
        match self.tok() {
            Tok::Arr(end) => Some(self.values_until(*end)),
            _ => None,
        }
    }

    /// The values after this container's header up to tape index
    /// `end`, each nested value skipped in one step.
    fn values_until(self, end: usize) -> impl Iterator<Item = Node<'d>> {
        let tape = self.tape;
        let mut at = self.at + 1;
        std::iter::from_fn(move || {
            (at < end).then(|| {
                let node = Node { tape, at };
                at = node.end();
                node
            })
        })
    }

    /// Whether this is an object.
    pub fn is_obj(self) -> bool {
        matches!(self.tok(), Tok::Obj(_))
    }

    /// The string payload, when this is a string.
    pub fn as_str(self) -> Option<&'d str> {
        match self.tok() {
            Tok::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is `true` or `false`.
    pub fn as_bool(self) -> Option<bool> {
        match self.tok() {
            Tok::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(self) -> Option<f64> {
        match self.tok() {
            Tok::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer (rejects
    /// fractions, negatives and anything above 2^53).
    pub fn as_u64(self) -> Option<u64> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return None;
        }
        Some(n as u64)
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
    tape: Vec<Tok<'a>>,
    /// Tape index of the innermost open container. While a container is
    /// open its header holds the index of the one enclosing it
    /// (`usize::MAX` at the top), so the open containers form a stack
    /// threaded through the tape; closing one swaps in its end index.
    open: Option<usize>,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            at: self.at,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// Parses one value and everything nested in it, iteratively:
    /// containers are opened onto `open` and closed as their last
    /// element ends.
    fn document(&mut self) -> Result<(), JsonError> {
        'value: loop {
            match self.peek() {
                Some(open @ (b'[' | b'{')) => {
                    self.at += 1;
                    let enclosing = self.open.unwrap_or(usize::MAX);
                    self.open = Some(self.tape.len());
                    self.tape.push(if open == b'[' {
                        Tok::Arr(enclosing)
                    } else {
                        Tok::Obj(enclosing)
                    });
                    self.skip_ws();
                    let close = if open == b'[' { b']' } else { b'}' };
                    if self.peek() == Some(close) {
                        self.at += 1;
                        self.close();
                    } else {
                        if open == b'{' {
                            self.member_key()?;
                        }
                        continue 'value;
                    }
                }
                _ => {
                    let tok = self.scalar()?;
                    self.tape.push(tok);
                }
            }
            // A value just ended: close every container it completes,
            // or move on to the next element of the innermost one.
            while let Some(top) = self.open {
                let in_array = matches!(self.tape[top], Tok::Arr(_));
                self.skip_ws();
                match (self.peek(), in_array) {
                    (Some(b','), _) => {
                        self.at += 1;
                        self.skip_ws();
                        if !in_array {
                            self.member_key()?;
                        }
                        continue 'value;
                    }
                    (Some(b']'), true) | (Some(b'}'), false) => {
                        self.at += 1;
                        self.close();
                    }
                    (_, true) => return Err(self.err("expected ',' or ']'")),
                    (_, false) => return Err(self.err("expected ',' or '}'")),
                }
            }
            return Ok(());
        }
    }

    /// Closes the innermost open container at the current tape end.
    fn close(&mut self) {
        let end = self.tape.len();
        if let Some(Tok::Arr(link) | Tok::Obj(link)) = self.open.map(|at| &mut self.tape[at]) {
            let enclosing = std::mem::replace(link, end);
            self.open = (enclosing != usize::MAX).then_some(enclosing);
        }
    }

    /// An object member's `"key" :`, leaving the cursor on its value.
    fn member_key(&mut self) -> Result<(), JsonError> {
        let key = self.string()?;
        self.tape.push(Tok::Str(key));
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        Ok(())
    }

    fn literal(&mut self, lit: &str, tok: Tok<'a>) -> Result<Tok<'a>, JsonError> {
        if self.bytes()[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(tok)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn scalar(&mut self) -> Result<Tok<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Tok::Null),
            Some(b't') => self.literal("true", Tok::Bool(true)),
            Some(b'f') => self.literal("false", Tok::Bool(false)),
            Some(b'"') => Ok(Tok::Str(self.string()?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.at + 4;
        let slice = self
            .bytes()
            .get(self.at..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let code = u16::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.at = end;
        Ok(code)
    }

    /// A string, borrowed from the input when it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let start = self.at;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            self.at += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.at - 1]));
        }
        let mut out = String::from(&self.text[start..self.at]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.at += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.at += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.at += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let from = self.at;
                    self.skip_plain();
                    out.push_str(&self.text[from..self.at]);
                }
            }
        }
    }

    /// Advances over string bytes that need no decoding, to the next
    /// `"`, `\` or control byte (or the end). Those are ASCII and never
    /// occur inside a multi-byte UTF-8 sequence, so the cursor stays on
    /// a char boundary.
    fn skip_plain(&mut self) {
        self.at += self.bytes()[self.at..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(self.text.len() - self.at);
    }

    /// The code point of a `\uXXXX` escape (cursor after the `u`),
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&hi) {
            // Surrogate pair: a second \uXXXX must follow.
            if self.peek() != Some(b'\\') {
                return Err(self.err("unpaired surrogate"));
            }
            self.at += 1;
            self.eat(b'u')?;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((u32::from(hi) - 0xd800) << 10) + (u32::from(lo) - 0xdc00)
        } else if (0xdc00..0xe000).contains(&hi) {
            return Err(self.err("unpaired surrogate"));
        } else {
            u32::from(hi)
        };
        char::from_u32(code).ok_or_else(|| self.err("bad code point"))
    }

    fn number(&mut self) -> Result<Tok<'a>, JsonError> {
        let start = self.at;
        let digits = |p: &mut Self| {
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.at += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        digits(self);
        if self.peek() == Some(b'.') {
            self.at += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            digits(self);
        }
        let text = &self.text[start..self.at];
        // Up to 15 digits are exact in an f64, so a plain integer needs
        // no float parser; `as` gives the same double `parse` would.
        let (sign, digits) = text.strip_prefix('-').map_or((1.0, text), |d| (-1.0, d));
        if (1..=15).contains(&digits.len()) && digits.bytes().all(|b| b.is_ascii_digit()) {
            let n = digits
                .bytes()
                .fold(0u64, |n, b| n * 10 + u64::from(b - b'0'));
            return Ok(Tok::Num(sign * n as f64));
        }
        text.parse::<f64>()
            .map(Tok::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode<T: Wire + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        JsonWriter::new(&mut out).value(value);
        out
    }

    #[test]
    fn parses_scalars() {
        let num = |text| Doc::parse(text).unwrap().root().as_f64();
        assert_eq!(Doc::parse("null").unwrap().tape, vec![Tok::Null]);
        assert_eq!(Doc::parse(" true ").unwrap().root().as_bool(), Some(true));
        assert_eq!(Doc::parse("false").unwrap().root().as_bool(), Some(false));
        assert_eq!(num("-12.5e2"), Some(-1250.0));
        assert_eq!(Doc::parse("\"hi\"").unwrap().root().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = Doc::parse(r#"{"a": [1, 2, {"b": "x"}], "c": null, "d": {"e": true}}"#).unwrap();
        let v = doc.root();
        assert!(v
            .get("c")
            .is_some_and(|c| c.as_f64().is_none() && !c.is_obj()));
        let arr: Vec<Node> = v.get("a").unwrap().items().unwrap().collect();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("d").unwrap().get("e").unwrap().as_bool(), Some(true));
        let keys: Vec<&str> = v.fields().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "c", "d"]);
        // Empty containers, and lookups on non-objects.
        let doc = Doc::parse(r#"[{}, [], [[]]]"#).unwrap();
        let items: Vec<Node> = doc.root().items().unwrap().collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].fields().count(), 0);
        assert_eq!(items[2].items().unwrap().count(), 1);
        assert!(doc.root().get("x").is_none());
    }

    #[test]
    fn escape_free_strings_borrow_from_the_line() {
        let doc = Doc::parse(r#"{"plain":"abc","esc":"a\nb"}"#).unwrap();
        assert!(matches!(doc.tape[1], Tok::Str(Cow::Borrowed("plain"))));
        assert!(matches!(doc.tape[2], Tok::Str(Cow::Borrowed("abc"))));
        assert!(matches!(&doc.tape[4], Tok::Str(Cow::Owned(s)) if s == "a\nb"));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{0001}\u{001f}f/🦀\r\u{7f}";
        let encoded = encode(original);
        assert_eq!(
            encoded,
            "\"a\\\"b\\\\c\\nd\\te\\u0001\\u001ff/🦀\\r\u{7f}\""
        );
        assert_eq!(
            Doc::parse(&encoded).unwrap().root().as_str(),
            Some(original)
        );
        // Explicit escape forms parse too.
        let doc = Doc::parse(r#""\u0041\u00e9\ud83e\udd80\/\b\f""#).unwrap();
        assert_eq!(doc.root().as_str(), Some("Aé🦀/\u{8}\u{c}"));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            700.0,
            -5.0,
            1e-300,
            1e15,
            1e21,
            f64::MAX,
            -0.0,
            123.456_789_012_345_67,
        ] {
            let encoded = encode(&x);
            assert_eq!(encoded, format!("{x}"), "same digits as Display");
            let back = Doc::parse(&encoded).unwrap().root().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} re-parsed as {back}");
        }
        assert_eq!(encode(&f64::NAN), "null");
        assert_eq!(encode(&f64::NEG_INFINITY), "null");
    }

    #[test]
    fn floats_print_exactly_as_display() {
        // The integral fast path must agree with `{}` digit for digit.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for i in 0..20_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let x = match i % 3 {
                0 => f64::from_bits(state),
                1 => (state >> 11) as f64 / 1024.0,
                _ => ((state >> 14) as f64).copysign(if state & 1 == 0 { 1.0 } else { -1.0 }),
            };
            if x.is_finite() {
                assert_eq!(encode(&x), format!("{x}"), "{:#x}", x.to_bits());
            }
        }
    }

    #[test]
    fn integers_print_as_the_double_the_wire_carries() {
        assert_eq!(encode(&0u64), "0");
        assert_eq!(encode(&576usize), "576");
        assert_eq!(encode(&(1u64 << 53)), "9007199254740992");
        for n in [(1u64 << 53) + 1, 1 << 60, u64::MAX] {
            assert_eq!(encode(&n), format!("{}", n as f64));
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "{'a':1}",
            "tru",
            "1.2.3",
            "-",
            "\"\\q\"",
            "\"\u{0009}\"",
            "\"abc",
            "[1] []",
            "nan",
            "\"\\ud800x\"",
            "\"\\udc00\"",
            "\"\\u12\"",
        ] {
            assert!(Doc::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn errors_locate_the_offending_byte() {
        let at = |text| Doc::parse(text).unwrap_err();
        assert_eq!(at("[1 2]").message, "expected ',' or ']'");
        assert_eq!(at("[1 2]").at, 3);
        assert_eq!(at(r#"{"a":1 "b":2}"#).at, 7);
        assert_eq!(at(r#"{"a" 1}"#).message, "expected ':'");
        assert_eq!(
            at("[1] x").message,
            "trailing characters after the document"
        );
        assert_eq!(at(r#""a\qb""#).at, 3);
    }

    #[test]
    fn deep_nesting_parses_without_recursion() {
        let depth = 200_000;
        let text = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let doc = Doc::parse(&text).unwrap();
        assert_eq!(doc.tape.len(), depth);
        assert!(Doc::parse(&"[".repeat(depth)).is_err());
    }

    #[test]
    fn as_u64_is_strict() {
        let u = |text| Doc::parse(text).unwrap().root().as_u64();
        assert_eq!(u("576"), Some(576));
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("9007199254740992"), Some(1 << 53));
        assert_eq!(u("9007199254740994"), None);
        assert_eq!(u("-1"), None);
        assert_eq!(u("1.5"), None);
        assert_eq!(u("1e300"), None);
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let doc = Doc::parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(doc.root().get("a").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.root().fields().count(), 2);
    }

    #[test]
    fn writer_separates_members_and_elements() {
        let mut out = String::from("prefix:");
        JsonWriter::new(&mut out).obj(|w| {
            w.field("a", &1u64).key("b").arr(|w| {
                w.obj(|_| {}).arr(|_| {}).value("x");
            });
            w.field("c\"", &false);
        });
        assert_eq!(out, r#"prefix:{"a":1,"b":[{},[],"x"],"c\"":false}"#);
    }
}
