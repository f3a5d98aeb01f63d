//! Minimal, dependency-free JSON used by madtrace: a push serializer, a
//! pull parser, and the small document model between them.
//!
//! The workspace is offline-by-design (no serde), yet the tracing
//! subsystem must emit machine-readable artifacts: Chrome trace-event
//! files, the metrics registry document and flight-recorder dumps — the
//! largest of them hundreds of thousands of entries long. So a document
//! is *described* to a [`JsonSink`] and never has to exist as a value:
//!
//! * [`JsonWriter`] turns the description into text as it is given, and
//!   is the only place escaping and number formatting are written down.
//!   [`JsonTree`] turns the same description into a [`Json`] value, for
//!   the callers that embed or inspect one.
//! * [`Parser`] reads text back one object field or array element at a
//!   time; [`Json::parse`] is the client that keeps everything, good
//!   enough to re-read our own artifacts (and any well-formed JSON), so
//!   tools can verify an export by parsing it back — the xtask smoke
//!   test does exactly that.
//!
//! Two properties the exporters rely on:
//!
//! * **Deterministic serialization.** Objects are ordered vectors, not
//!   maps: rendering the same value twice yields byte-identical text, and
//!   insertion order is the output order. Floats render through Rust's
//!   shortest-roundtrip formatter, which is a pure function of the value.
//! * **Bounded reading.** Nesting deeper than [`MAX_DEPTH`] is an error,
//!   not a stack overflow, and a lone surrogate escape becomes U+FFFD.
//!
//! Timestamps use the [`Json::Fixed3`] variant: a value in thousandths
//! rendered as `<int>.<frac:03>`. Chrome's trace format wants microsecond
//! floats; virtual time is integer nanoseconds; `Fixed3` renders ns as µs
//! exactly, without ever going through floating point.

// madlint: file: deterministic-output

use std::borrow::Cow;
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (cookies, counters).
    UInt(u64),
    /// A float. Non-finite values render as `null`.
    Float(f64),
    /// A value in thousandths, rendered as `<int>.<frac:03>` (used for
    /// nanosecond timestamps on a microsecond scale).
    Fixed3(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is insertion order and is preserved verbatim
    /// by the serializer (this is what makes exports byte-stable).
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<u16> for Json {
    fn from(v: u16) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Ordered-object builder: `obj().field("a", 1u64).field("b", "x").build()`.
#[derive(Clone, Debug, Default)]
pub struct ObjBuilder {
    fields: Vec<(String, Json)>,
}

/// Start building an object.
pub fn obj() -> ObjBuilder {
    ObjBuilder { fields: Vec::new() }
}

impl ObjBuilder {
    /// Append a field (order is preserved in the output).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Finish into a [`Json::Obj`].
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

/// Where a JSON document goes as it is described: [`JsonWriter`] turns the
/// calls into text, [`JsonTree`] into a [`Json`] value. A document (or an
/// event's argument list) is described once, generic over its sink, and
/// both forms follow from that one description.
///
/// The caller keeps the calls well-formed: inside an object every value
/// is preceded by [`JsonSink::key`], and every `begin_*` is closed.
pub trait JsonSink {
    /// Open an object.
    fn begin_object(&mut self);
    /// Close the innermost object.
    fn end_object(&mut self);
    /// Open an array.
    fn begin_array(&mut self);
    /// Close the innermost array.
    fn end_array(&mut self);
    /// Name the next value of the innermost object.
    fn key(&mut self, key: &str);
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, v: bool);
    /// A signed integer.
    fn int(&mut self, v: i64);
    /// An unsigned integer.
    fn uint(&mut self, v: u64);
    /// A float (non-finite values become `null`).
    fn float(&mut self, v: f64);
    /// A value in thousandths ([`Json::Fixed3`]).
    fn fixed3(&mut self, v: u64);
    /// A string.
    fn str(&mut self, v: &str);

    /// Send an existing [`Json`] value through the sink.
    fn value(&mut self, v: &Json) {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Int(v) => self.int(*v),
            Json::UInt(v) => self.uint(*v),
            Json::Float(v) => self.float(*v),
            Json::Fixed3(v) => self.fixed3(*v),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array();
            }
            Json::Obj(fields) => {
                self.begin_object();
                for (k, v) in fields {
                    self.key(k);
                    self.value(v);
                }
                self.end_object();
            }
        }
    }

    /// `key` followed by an unsigned value.
    fn field_uint(&mut self, key: &str, v: impl Into<u64>) {
        self.key(key);
        self.uint(v.into());
    }

    /// `key` followed by a string value.
    fn field_str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.str(v);
    }
}

/// The push serializer: appends compact JSON text to a `String`, one call
/// per token, with no intermediate value and no temporary strings. This is
/// the only place escaping and number formatting are written down —
/// [`Json::render`] is its client.
///
/// Commas need no nesting stack: a value or key is the first of its
/// container exactly when the text so far ends in `[`, `{` or `:` (or is
/// the writer's own start), which no rendered scalar can end in.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    start: usize,
}

impl<'a> JsonWriter<'a> {
    /// Write one document (or one scalar) at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        let start = out.len();
        JsonWriter { out, start }
    }

    /// The text of the document `describe` describes.
    pub fn document(describe: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut out = String::new();
        describe(&mut JsonWriter::new(&mut out));
        out
    }

    fn separate(&mut self) {
        let first = self.out.len() == self.start
            || matches!(self.out.as_bytes().last(), Some(b'[' | b'{' | b':'));
        if !first {
            self.out.push(',');
        }
    }

    /// Append `text` as it is: keys and punctuation fixed when the program
    /// is written (`,"ph":"i","ts":`), so an exporter writes a record's
    /// constant text in one copy. Nothing is escaped and no separator is
    /// added, so `text` must already be the JSON it stands for; a value
    /// that follows a key in it is written as after [`JsonSink::key`].
    pub fn fixed(&mut self, text: &'static str) {
        debug_assert!(!text.bytes().any(|b| b < 0x20), "{text:?} is not JSON text");
        self.out.push_str(text);
    }

    /// `v` in decimal: the two-digit pairs are found from the lowest and
    /// copied from the highest, out of [`DIGIT_PAIRS`], a leading single
    /// digit alone.
    fn push_uint(&mut self, mut v: u64) {
        let mut pairs = [0u8; 10];
        let mut n = 0;
        while v >= 100 {
            pairs[n] = (v % 100) as u8;
            v /= 100;
            n += 1;
        }
        if v < 10 {
            self.out.push(char::from(b'0' + v as u8));
        } else {
            self.push_pair(v as u8);
        }
        for &pair in pairs[..n].iter().rev() {
            self.push_pair(pair);
        }
    }

    fn push_pair(&mut self, pair: u8) {
        let at = 2 * usize::from(pair);
        self.out.push_str(&DIGIT_PAIRS[at..at + 2]);
    }

    /// `v` thousandths as `<int>.<frac:03>`.
    fn push_fixed3(&mut self, v: u64) {
        const POINT_DIGIT: &str = ".0.1.2.3.4.5.6.7.8.9";
        let frac = (v % 1000) as usize;
        self.push_uint(v / 1000);
        self.out
            .push_str(&POINT_DIGIT[2 * (frac / 100)..2 * (frac / 100) + 2]);
        self.push_pair((frac % 100) as u8);
    }

    fn push_escaped(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.reserve(s.len() + 2);
        self.out.push('"');
        // Most strings have nothing to escape and go in one copy.
        if needs_no_escape(s.as_bytes()) {
            self.out.push_str(s);
            self.out.push('"');
            return;
        }
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "\\u00",
                _ => continue,
            };
            self.out.push_str(&s[plain..i]);
            self.out.push_str(escape);
            if escape.len() == 4 {
                self.out.push(HEX[usize::from(b >> 4)] as char);
                self.out.push(HEX[usize::from(b & 0xf)] as char);
            }
            plain = i + 1;
        }
        self.out.push_str(&s[plain..]);
        self.out.push('"');
    }
}

/// Whether `s` holds no control byte, `"` or `\`. Eight bytes are tested
/// at a time, the tail padded with spaces: a byte below `n` shows as a
/// borrow out of `x − n·0x01…01` into a top bit the byte did not have.
fn needs_no_escape(s: &[u8]) -> bool {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const TOPS: u64 = ONES << 7;
    let escapes = |x: u64| {
        let below = |x: u64, n: u8| x.wrapping_sub(ONES * u64::from(n)) & !x & TOPS;
        below(x, 0x20)
            | below(x ^ (ONES * u64::from(b'"')), 1)
            | below(x ^ (ONES * u64::from(b'\\')), 1)
    };
    let mut words = s.chunks_exact(8);
    let mut found = 0;
    for word in &mut words {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(word);
        found |= escapes(u64::from_le_bytes(bytes));
    }
    let mut tail = [b' '; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    (found | escapes(u64::from_le_bytes(tail))) == 0
}

/// The two digits of every value 0–99, back to back.
const DIGIT_PAIRS: &str = "\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

impl JsonSink for JsonWriter<'_> {
    fn begin_object(&mut self) {
        self.separate();
        self.out.push('{');
    }

    fn end_object(&mut self) {
        self.out.push('}');
    }

    fn begin_array(&mut self) {
        self.separate();
        self.out.push('[');
    }

    fn end_array(&mut self) {
        self.out.push(']');
    }

    fn key(&mut self, key: &str) {
        self.separate();
        self.push_escaped(key);
        self.out.push(':');
    }

    fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }

    fn bool(&mut self, v: bool) {
        self.separate();
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn int(&mut self, v: i64) {
        self.separate();
        if v < 0 {
            self.out.push('-');
        }
        self.push_uint(v.unsigned_abs());
    }

    fn uint(&mut self, v: u64) {
        self.separate();
        self.push_uint(v);
    }

    fn float(&mut self, v: f64) {
        use fmt::Write;
        if !v.is_finite() {
            return self.null();
        }
        self.separate();
        // Shortest-roundtrip formatting; force a decimal point so the
        // value re-parses as a float.
        let at = self.out.len();
        let _ = write!(self.out, "{v}"); // writing to a String cannot fail
        if !self.out[at..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
    }

    fn fixed3(&mut self, v: u64) {
        self.separate();
        self.push_fixed3(v);
    }

    fn str(&mut self, v: &str) {
        self.separate();
        self.push_escaped(v);
    }

    // A key leaves the text ending in `:`, so its value needs no separator.
    fn field_uint(&mut self, key: &str, v: impl Into<u64>) {
        self.key(key);
        self.push_uint(v.into());
    }

    fn field_str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.push_escaped(v);
    }
}

/// The sink that builds the [`Json`] value a [`JsonWriter`] would have
/// written — for the few places that embed a document in a larger one or
/// inspect it field by field.
#[derive(Default)]
pub struct JsonTree {
    /// Open containers, each with the key it will be filed under.
    open: Vec<(Option<String>, Json)>,
    key: Option<String>,
    root: Option<Json>,
}

impl JsonTree {
    /// The value of the document `describe` describes (`null` if it
    /// describes nothing).
    pub fn document(describe: impl FnOnce(&mut JsonTree)) -> Json {
        let mut tree = JsonTree::default();
        describe(&mut tree);
        tree.root.unwrap_or(Json::Null)
    }

    fn put(&mut self, v: Json) {
        match self.open.last_mut() {
            Some((_, Json::Arr(items))) => items.push(v),
            Some((_, Json::Obj(fields))) => fields.push((self.key.take().unwrap_or_default(), v)),
            _ => self.root = Some(v),
        }
    }

    fn open(&mut self, container: Json) {
        self.open.push((self.key.take(), container));
    }

    fn close(&mut self) {
        if let Some((key, container)) = self.open.pop() {
            self.key = key;
            self.put(container);
        }
    }
}

impl JsonSink for JsonTree {
    fn begin_object(&mut self) {
        self.open(Json::Obj(Vec::new()));
    }
    fn end_object(&mut self) {
        self.close();
    }
    fn begin_array(&mut self) {
        self.open(Json::Arr(Vec::new()));
    }
    fn end_array(&mut self) {
        self.close();
    }
    fn key(&mut self, key: &str) {
        self.key = Some(key.to_string());
    }
    fn null(&mut self) {
        self.put(Json::Null);
    }
    fn bool(&mut self, v: bool) {
        self.put(Json::Bool(v));
    }
    fn int(&mut self, v: i64) {
        self.put(Json::Int(v));
    }
    fn uint(&mut self, v: u64) {
        self.put(Json::UInt(v));
    }
    fn float(&mut self, v: f64) {
        self.put(Json::Float(v));
    }
    fn fixed3(&mut self, v: u64) {
        self.put(Json::Fixed3(v));
    }
    fn str(&mut self, v: &str) {
        self.put(Json::Str(v.to_string()));
    }
    fn value(&mut self, v: &Json) {
        self.put(v.clone());
    }
}

impl Json {
    /// Serialize to compact JSON text (deterministic for a given value).
    pub fn render(&self) -> String {
        JsonWriter::document(|w| w.value(self))
    }

    /// Field lookup on objects (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Unsigned view (accepts `Int`/`UInt`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Parse JSON text.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        let v = p.value()?;
        p.finish()?;
        Ok(v)
    }
}

/// A parse error with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Deepest container nesting the parser follows before giving up with an
/// error: ten times anything this repository writes, and far below what
/// the recursion in [`Parser::value`] / [`Parser::skip`] can take.
pub const MAX_DEPTH: usize = 128;

/// The pull parser: a cursor over JSON text that hands out one top-level
/// field or array element at a time, so a reader can fold a large
/// document without ever holding it as a [`Json`] tree.
///
/// ```text
///   p.begin_object()?;
///   while let Some(key) = p.next_key()? {
///       match &*key {
///           "rows" => {
///               p.begin_array()?;
///               while p.next_element()? {
///                   let row = p.value()?;   // one element, then dropped
///               }
///           }
///           _ => p.skip()?,
///       }
///   }
///   p.finish()?;
/// ```
///
/// After `next_key` returns a key, or `next_element` returns `true`, the
/// caller consumes exactly one value ([`Parser::value`], [`Parser::skip`],
/// [`Parser::string`], or a nested `begin_*` loop). [`Json::parse`] is the
/// client that keeps everything.
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers entered and not yet closed.
    depth: usize,
    /// The innermost container was just opened: no `,` precedes its first
    /// member, and it may close at once.
    fresh: bool,
}

impl<'a> Parser<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason: reason.to_string(),
        }
    }

    /// The first byte of the next value (whitespace skipped) — `b'{'`,
    /// `b'['`, `b'"'`, a digit, … — or `None` at the end of the text.
    pub fn peek(&mut self) -> Option<u8> {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    /// Nothing but whitespace may follow the top-level value.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters after value")),
        }
    }

    fn open(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() != Some(b) {
            return Err(self.err(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Step to the next member of the innermost container: `Ok(true)`
    /// with the cursor on it, `Ok(false)` with the container closed.
    fn advance(&mut self, close: u8, what: &str) -> Result<bool, JsonError> {
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            Some(_) if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                if self.peek() == Some(close) {
                    return Err(self.err("expected a JSON value"));
                }
                Ok(true)
            }
            _ => Err(self.err(what)),
        }
    }

    /// Enter the object at the cursor.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{', "expected '{'")
    }

    /// The next key of the innermost object (cursor left on its value), or
    /// `None` once the object is closed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.advance(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        let key = self.string()?;
        if self.peek() != Some(b':') {
            return Err(self.err("expected ':'"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Enter the array at the cursor.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[', "expected '['")
    }

    /// Whether the innermost array has another element (cursor left on
    /// it); `false` once the array is closed.
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.advance(b']', "expected ',' or ']'")
    }

    fn lit(&mut self, s: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// The value at the cursor that is not a container, if it is one.
    fn scalar(&mut self) -> Result<Option<Json>, JsonError> {
        Ok(Some(match self.peek() {
            Some(b'[' | b'{') => return Ok(None),
            Some(b'n') => self.lit("null", Json::Null)?,
            Some(b't') => self.lit("true", Json::Bool(true))?,
            Some(b'f') => self.lit("false", Json::Bool(false))?,
            Some(b'"') => Json::Str(self.string()?.into_owned()),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number()?,
            _ => return Err(self.err("expected a JSON value")),
        }))
    }

    /// Consume the value at the cursor into a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        if let Some(v) = self.scalar()? {
            return Ok(v);
        }
        if self.peek() == Some(b'[') {
            self.begin_array()?;
            let mut items = Vec::new();
            while self.next_element()? {
                items.push(self.value()?);
            }
            Ok(Json::Arr(items))
        } else {
            self.begin_object()?;
            let mut fields = Vec::new();
            while let Some(key) = self.next_key()? {
                fields.push((key.into_owned(), self.value()?));
            }
            Ok(Json::Obj(fields))
        }
    }

    /// Consume the value at the cursor, checking it like [`Parser::value`]
    /// and keeping nothing.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'"') {
            return self.string().map(drop);
        }
        if self.scalar()?.is_some() {
            return Ok(());
        }
        if self.peek() == Some(b'[') {
            self.begin_array()?;
            while self.next_element()? {
                self.skip()?;
            }
        } else {
            self.begin_object()?;
            while self.next_key()?.is_some() {
                self.skip()?;
            }
        }
        Ok(())
    }

    /// Consume the string at the cursor; borrowed from the text unless it
    /// holds an escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut out = Cow::Borrowed("");
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&c) = self.bytes.get(self.pos) {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?;
                if out.is_empty() {
                    out = Cow::Borrowed(run);
                } else {
                    out.to_mut().push_str(run);
                }
            }
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            self.pos += 1;
                            out.to_mut().push(self.unicode_escape()?);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.to_mut().push(c);
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character of a `\u` escape whose four digits start at the
    /// cursor. A high surrogate combines with a low one that follows it;
    /// any other surrogate stands alone and becomes U+FFFD, leaving what
    /// follows it to be decoded on its own.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let cp = self.hex4()?;
        if (0xd800..0xdc00).contains(&cp) && self.bytes[self.pos..].starts_with(b"\\u") {
            let after_hi = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xdc00..0xe000).contains(&lo) {
                let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                return Ok(char::from_u32(combined).unwrap_or('\u{fffd}'));
            }
            self.pos = after_hi;
        }
        Ok(char::from_u32(cp).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let s = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            while p.bytes.get(p.pos).is_some_and(|c| c.is_ascii_digit()) {
                p.pos += 1;
            }
        };
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            is_float = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else if let Ok(v) = text.parse::<i64>() {
            Ok(Json::Int(v))
        } else if let Ok(v) = text.parse::<u64>() {
            Ok(Json::UInt(v))
        } else {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(
            Json::UInt(18_000_000_000_000_000_000).render(),
            "18000000000000000000"
        );
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(2.0).render(), "2.0");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Fixed3(1_234_567).render(), "1234.567");
        assert_eq!(Json::Fixed3(42).render(), "0.042");
    }

    #[test]
    fn renders_structures_in_insertion_order() {
        let v = obj()
            .field("b", 1u64)
            .field("a", vec![Json::Null, Json::Str("x\"y".into())])
            .build();
        assert_eq!(v.render(), r#"{"b":1,"a":[null,"x\"y"]}"#);
    }

    #[test]
    fn parse_round_trips_own_output() {
        let v = obj()
            .field("name", "madtrace")
            .field("n", 42u64)
            .field("neg", Json::Int(-7))
            .field("f", 0.25)
            .field("list", vec![Json::Bool(false), Json::Null])
            .field("nested", obj().field("k", "v\n\t").build())
            .build();
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("name").unwrap().as_str(), Some("madtrace"));
        assert_eq!(back.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(back.get("list").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            back.get("nested").unwrap().get("k").unwrap().as_str(),
            Some("v\n\t")
        );
        // Determinism: render(parse(render(v))) == render(v) modulo number
        // typing; rendering the same value twice is byte-identical.
        assert_eq!(v.render(), text);
    }

    #[test]
    fn parses_fixed3_as_float() {
        let v = Json::parse("[1234.567]").unwrap();
        assert_eq!(v.as_array().unwrap()[0], Json::Float(1234.567));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""aA\né 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\né 😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        let e = Json::parse("[null,@]").unwrap_err();
        assert!(e.offset > 0 && e.to_string().contains("byte"));
    }

    /// `\ud800` followed by an escape that is not a low surrogate: the
    /// parent combined them unchecked (overflow panic in debug, U+2441 and
    /// a swallowed `A` in release).
    #[test]
    fn lone_high_surrogate_leaves_the_next_escape_alone() {
        let lone = |text: &str| Json::parse(text).unwrap().as_str().map(str::to_string);
        assert_eq!(lone(r#""\ud800\u0041""#).as_deref(), Some("\u{fffd}A"));
        assert_eq!(
            lone(r#""\ud800\ud800x""#).as_deref(),
            Some("\u{fffd}\u{fffd}x")
        );
        assert_eq!(lone(r#""\ud800""#).as_deref(), Some("\u{fffd}"));
        assert_eq!(lone(r#""\udc00!""#).as_deref(), Some("\u{fffd}!"));
        assert_eq!(lone(r#""\ud83d\ude00""#).as_deref(), Some("😀"));
        assert!(
            Json::parse(r#""\ud800\u00""#).is_err(),
            "truncated second escape"
        );
    }

    /// Nesting is bounded: the parent recursed once per `[` and overflowed
    /// the stack on hostile input.
    #[test]
    fn nesting_beyond_the_limit_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let e = Json::parse(&open.repeat(200_000)).unwrap_err();
            assert_eq!(e.offset, open.len() * MAX_DEPTH, "{e}");
            assert!(e.reason.contains("deep"), "{e}");
            assert!(Parser::new(&open.repeat(200_000)).skip().is_err());
        }
        // Exactly the limit is fine, read either way.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let mut p = Parser::new(&ok);
        assert!(p.skip().and_then(|()| p.finish()).is_ok());
    }

    /// The parent's recursive serializer, kept as the reference the
    /// writer's bytes are compared against (`render` itself now goes
    /// through [`JsonWriter`]).
    fn reference_write(v: &Json, out: &mut String) {
        fn escaped(s: &str, out: &mut String) {
            out.push('"');
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
            out.push('"');
        }
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    let s = v.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Fixed3(v) => {
                out.push_str(&(v / 1000).to_string());
                out.push('.');
                out.push_str(&format!("{:03}", v % 1000));
            }
            Json::Str(s) => escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    reference_write(item, out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escaped(k, out);
                    out.push(':');
                    reference_write(v, out);
                }
                out.push('}');
            }
        }
    }

    /// A generated value: every scalar kind, the `Fixed3` and integer
    /// edges, strings that need every escape, nesting up to `depth`.
    fn generated(rng: &mut u64, depth: u32) -> Json {
        fn next(rng: &mut u64, n: u64) -> usize {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            (*rng % n) as usize
        }
        const STRINGS: [&str; 8] = [
            "",
            "plain",
            "q\"uote\\slash",
            "\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}",
            "é 😀 \u{10ffff}",
            "[",
            "{:",
            "\u{7f}/",
        ];
        const UINTS: [u64; 7] = [0, 9, 10, 42, 999, 1000, u64::MAX];
        let kinds = if depth == 0 { 7 } else { 9 };
        match next(rng, kinds) {
            0 => Json::Null,
            1 => Json::Bool(next(rng, 2) == 0),
            2 => Json::Int([0, -1, 7, i64::MIN, i64::MAX][next(rng, 5)]),
            3 => Json::UInt(UINTS[next(rng, 7)]),
            4 => Json::Float([0.0, -0.0, 2.0, 0.25, 1e300, -1.5e-7, f64::NAN][next(rng, 7)]),
            5 => Json::Fixed3(UINTS[next(rng, 7)]),
            6 => Json::Str(STRINGS[next(rng, 8)].to_string()),
            7 => Json::Arr(
                (0..next(rng, 4))
                    .map(|_| generated(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..next(rng, 4))
                    .map(|_| (STRINGS[next(rng, 8)].to_string(), generated(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn writer_tree_and_pull_parser_agree_with_the_recursive_reference() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for case in 0..2000 {
            let v = generated(&mut rng, 4);
            let mut want = String::new();
            reference_write(&v, &mut want);
            let text = v.render();
            assert_eq!(text, want, "case {case}: writer != reference");
            // The tree sink rebuilds the value the writer was fed.
            fn feed(v: &Json, s: &mut impl JsonSink) {
                match v {
                    Json::Arr(items) => {
                        s.begin_array();
                        items.iter().for_each(|i| feed(i, s));
                        s.end_array();
                    }
                    Json::Obj(fields) => {
                        s.begin_object();
                        for (k, v) in fields {
                            s.key(k);
                            feed(v, s);
                        }
                        s.end_object();
                    }
                    scalar => s.value(scalar),
                }
            }
            let tree = JsonTree::document(|t| feed(&v, t));
            assert_eq!(tree.render(), text, "case {case}: tree != writer");
            // parse(render(v)) round-trips — once `Fixed3` and integer
            // typing have been through the parser, exactly — and skipping
            // accepts what parsing accepts.
            let back = Json::parse(&text).unwrap();
            let again = Json::parse(&back.render()).unwrap();
            assert_eq!(again, back, "case {case}: round trip");
            let mut p = Parser::new(&text);
            assert!(p.skip().and_then(|()| p.finish()).is_ok(), "case {case}");
            // Pull-parsing the top level one member at a time yields the
            // members DOM-parsing yields.
            let mut p = Parser::new(&text);
            let pulled = match &back {
                Json::Arr(_) => {
                    p.begin_array().unwrap();
                    let mut items = Vec::new();
                    while p.next_element().unwrap() {
                        items.push(p.value().unwrap());
                    }
                    Json::Arr(items)
                }
                Json::Obj(_) => {
                    p.begin_object().unwrap();
                    let mut fields = Vec::new();
                    while let Some(k) = p.next_key().unwrap() {
                        fields.push((k.into_owned(), p.value().unwrap()));
                    }
                    Json::Obj(fields)
                }
                _ => p.value().unwrap(),
            };
            p.finish().unwrap();
            assert_eq!(pulled, back, "case {case}: pull != DOM");
        }
    }

    /// The writer's number and string formatting as it was before it
    /// wrote digits in pairs and plain strings in one copy: one
    /// `String::push` per digit and per escaped byte. The reference the
    /// fast paths are held to.
    mod char_by_char {
        pub(super) fn uint(out: &mut String, mut v: u64) {
            let mut digits = [0u8; 20];
            let mut at = digits.len();
            loop {
                at -= 1;
                digits[at] = b'0' + (v % 10) as u8;
                v /= 10;
                if v == 0 {
                    break;
                }
            }
            for &d in &digits[at..] {
                out.push(d as char);
            }
        }

        pub(super) fn escaped(out: &mut String, s: &str) {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push('"');
            let mut plain = 0;
            for (i, b) in s.bytes().enumerate() {
                let escape = match b {
                    b'"' => "\\\"",
                    b'\\' => "\\\\",
                    b'\n' => "\\n",
                    b'\r' => "\\r",
                    b'\t' => "\\t",
                    0..=0x1f => "\\u00",
                    _ => continue,
                };
                out.push_str(&s[plain..i]);
                out.push_str(escape);
                if escape.len() == 4 {
                    out.push(HEX[usize::from(b >> 4)] as char);
                    out.push(HEX[usize::from(b & 0xf)] as char);
                }
                plain = i + 1;
            }
            out.push_str(&s[plain..]);
            out.push('"');
        }

        pub(super) fn fixed3(out: &mut String, v: u64) {
            uint(out, v / 1000);
            out.push('.');
            let frac = v % 1000;
            for d in [frac / 100, frac / 10 % 10, frac % 10] {
                out.push((b'0' + d as u8) as char);
            }
        }
    }

    /// Every `u64` that starts or ends a digit count, its neighbours, the
    /// powers of two and `u64::MAX`.
    fn digit_boundaries() -> Vec<u64> {
        let mut values = vec![u64::MAX, u64::MAX - 1];
        for k in 0..20u32 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p, p + 1, p.saturating_mul(5)]);
        }
        values.extend((0..64).map(|k| 1u64 << k));
        values.extend((0..64).map(|k| (1u64 << k) - 1));
        values
    }

    #[test]
    fn fast_paths_write_the_char_by_char_bytes_and_parse_back() {
        let mut rng = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let written = |describe: &dyn Fn(&mut JsonWriter<'_>)| {
            let mut out = String::new();
            describe(&mut JsonWriter::new(&mut out));
            out
        };
        // Numbers: every digit count, and random values between.
        let mut values = digit_boundaries();
        values.extend((0..2000).map(|_| next() >> (next() % 64)));
        for v in values {
            let mut want = String::new();
            char_by_char::uint(&mut want, v);
            assert_eq!(written(&|w| w.uint(v)), want, "uint {v}");
            assert_eq!(Json::parse(&want).ok().and_then(|j| j.as_u64()), Some(v));
            let negative = -(v as i64 & i64::MAX) - 1;
            assert_eq!(written(&|w| w.int(negative)), negative.to_string());
            assert_eq!(Json::parse(&negative.to_string()), Ok(Json::Int(negative)));
            let mut want = String::new();
            char_by_char::fixed3(&mut want, v);
            assert_eq!(written(&|w| w.fixed3(v)), want, "fixed3 {v}");
            assert_eq!(want, format!("{}.{:03}", v / 1000, v % 1000));
            if v < 1 << 53 {
                let exact = v as f64 / 1000.0;
                assert_eq!(Json::parse(&want), Ok(Json::Float(exact)), "fixed3 {v}");
            }
        }
        // Strings: ASCII, quotes, backslashes, every control byte and
        // multi-byte UTF-8, in runs and alone.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['"', '\\', '/', 'a', 'Z', '0', ' ', '\u{7f}', 'é', 'ß', '€']);
        alphabet.extend(['\u{7ff}', '\u{800}', '\u{ffff}', '😀', '\u{10ffff}']);
        for case in 0..5000 {
            let len = next() % 24;
            let plain = case % 3 == 0;
            let s: String = (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                .filter(|&c| !plain || (c >= ' ' && c != '"' && c != '\\'))
                .collect();
            let mut want = String::new();
            char_by_char::escaped(&mut want, &s);
            assert_eq!(written(&|w| w.str(&s)), want, "{s:?}");
            assert_eq!(Json::parse(&want), Ok(Json::Str(s.clone())), "{s:?}");
            // As a key and as a field value, through both sinks.
            let text = written(&|w| {
                w.begin_object();
                w.field_str(&s, &s);
                w.field_uint("n", len);
                w.key(&s);
                w.fixed3(len);
                w.end_object();
            });
            let tree = JsonTree::document(|t| {
                t.begin_object();
                t.field_str(&s, &s);
                t.field_uint("n", len);
                t.key(&s);
                t.fixed3(len);
                t.end_object();
            });
            assert_eq!(tree.render(), text, "{s:?}");
            let mut want = String::from("{");
            char_by_char::escaped(&mut want, &s);
            want.push(':');
            char_by_char::escaped(&mut want, &s);
            want.push_str(",\"n\":");
            char_by_char::uint(&mut want, len);
            want.push(',');
            char_by_char::escaped(&mut want, &s);
            want.push(':');
            char_by_char::fixed3(&mut want, len);
            want.push('}');
            assert_eq!(text, want, "{s:?}");
        }
    }

    /// A fixed run stands for the keys and punctuation it spells: a
    /// record written with runs is the record written key by key.
    #[test]
    fn fixed_runs_write_what_the_keys_they_spell_would() {
        let by_runs = JsonWriter::document(|w| {
            w.begin_array();
            for v in [0, 7, u64::MAX] {
                w.begin_object();
                w.fixed("\"name\":");
                w.str("x\"y");
                w.fixed(",\"ts\":");
                w.fixed3(v);
                w.fixed(",\"args\":{");
                w.field_uint("v", v);
                w.fixed("}}");
            }
            w.end_array();
        });
        let by_keys = JsonWriter::document(|w| {
            w.begin_array();
            for v in [0, 7, u64::MAX] {
                w.begin_object();
                w.field_str("name", "x\"y");
                w.key("ts");
                w.fixed3(v);
                w.key("args");
                w.begin_object();
                w.field_uint("v", v);
                w.end_object();
                w.end_object();
            }
            w.end_array();
        });
        assert_eq!(by_runs, by_keys);
    }

    #[test]
    fn writer_appends_after_existing_text() {
        let mut out = String::from("gauge ");
        JsonWriter::new(&mut out).fixed3(1_000);
        out.push(' ');
        JsonWriter::new(&mut out).uint(7);
        assert_eq!(out, "gauge 1.000 7");
    }

    #[test]
    fn pull_parser_rejects_what_the_tree_parser_rejects() {
        for bad in [
            "[1,]",
            "[,1]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1 2]",
            "{\"a\":1 \"b\":2}",
            "[1",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
            let mut p = Parser::new(bad);
            assert!(p.skip().and_then(|()| p.finish()).is_err(), "{bad}");
        }
    }

    #[test]
    fn accessors_reject_wrong_types() {
        assert_eq!(Json::Null.get("x"), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Str("s".into()).as_array(), None);
    }
}
