//! Dependency-free NDJSON event codec for logical I/O records — the
//! trace-file format of `ees gen` and the wire format of the online
//! controller (`ees-online`).
//!
//! Each line is one flat JSON object, fields in [`LogicalIoRecord`]
//! declaration order:
//!
//! ```text
//! {"ts":1000000,"item":1,"offset":0,"len":4096,"kind":"Read"}
//! ```
//!
//! The codec is hand-rolled rather than routed through a JSON library for
//! two reasons: the daemon parses events on its ingest hot path and a flat
//! five-field object does not need a generic JSON tree, and the writer
//! side must stream records one line at a time without buffering a trace.
//! The parser is tolerant: fields may appear in any order, whitespace is
//! skipped, blank lines and `#` comment lines are ignored by the reader.

use crate::record::{LogicalIoRecord, LogicalTrace};
use crate::types::{DataItemId, IoKind, Micros};
use std::borrow::Cow;
use std::io::BufRead;

/// Formats one record as a single NDJSON line (no trailing newline):
/// fields in declaration order, no spaces.
pub fn format_event(rec: &LogicalIoRecord) -> String {
    format!(
        "{{\"ts\":{},\"item\":{},\"offset\":{},\"len\":{},\"kind\":\"{}\"}}",
        rec.ts.0,
        rec.item.0,
        rec.offset,
        rec.len,
        match rec.kind {
            IoKind::Read => "Read",
            IoKind::Write => "Write",
        }
    )
}

/// Writes every record of `records` as NDJSON lines.
pub fn write_events<'a, W: std::io::Write>(
    records: impl IntoIterator<Item = &'a LogicalIoRecord>,
    w: &mut W,
) -> std::io::Result<()> {
    for rec in records {
        writeln!(w, "{}", format_event(rec))?;
    }
    Ok(())
}

/// Escapes a string for embedding in a JSON string literal.
///
/// Returns the input borrowed when it needs no escaping — the common
/// case for every identifier this workspace formats — so hot-path
/// callers pay no allocation. (ASCII control bytes never occur as UTF-8
/// continuation bytes, so a byte scan is exact.)
pub fn json_escape(s: &str) -> Cow<'_, str> {
    // One wide scan decides the borrow: the first index that needs
    // escaping is always a character boundary (only ASCII bytes ever
    // need it), so the clean prefix can be copied wholesale.
    let first_bad = match crate::scan::scanner().needs_escape(s.as_bytes()) {
        None => return Cow::Borrowed(s),
        Some(i) => i,
    };
    let mut out = String::with_capacity(s.len() + 2);
    out.push_str(&s[..first_bad]);
    for c in s[first_bad..].chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // `\u00XX` with the hex digits emitted in place — no
                // per-character `format!` allocation.
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let b = c as u32 as usize;
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) & 0xf] as char);
                out.push(HEX[b & 0xf] as char);
            }
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

// --- byte scanning -----------------------------------------------------
//
// memchr-style scanning without the dependency. The kernels live in
// [`crate::scan`] — runtime-dispatched AVX2/SSE2/NEON with a portable
// SWAR fallback, resolved once into a function-pointer table. These
// re-exports keep the historical `ndjson::{find_byte, ...}` paths (and
// their callers) working on the dispatched implementations.

pub use crate::scan::{count_byte, find_byte, find_byte2};

/// One scalar value inside a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonScalar {
    /// An unsigned integer.
    Num(u64),
    /// A (unescaped) string.
    Str(String),
}

impl JsonScalar {
    /// The value as a `u64`, if it is numeric.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonScalar::Num(n) => Some(*n),
            JsonScalar::Str(_) => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonScalar::Num(_) => None,
            JsonScalar::Str(s) => Some(s),
        }
    }
}

/// Parses a flat JSON object — string keys, unsigned-integer or string
/// values, no nesting — into `(key, value)` pairs in source order.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonScalar)>, String> {
    let mut chars = line.char_indices().peekable();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while chars.next_if(|&(_, c)| c.is_ascii_whitespace()).is_some() {}
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| -> Result<String, String> {
            match chars.next() {
                Some((_, '"')) => {}
                other => return Err(format!("expected '\"', found {other:?}")),
            }
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some((_, '"')) => return Ok(s),
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '"')) => s.push('"'),
                        Some((_, '\\')) => s.push('\\'),
                        Some((_, '/')) => s.push('/'),
                        Some((_, 'n')) => s.push('\n'),
                        Some((_, 'r')) => s.push('\r'),
                        Some((_, 't')) => s.push('\t'),
                        Some((_, 'u')) => {
                            let mut v: u32 = 0;
                            for _ in 0..4 {
                                let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                                v = v * 16 + h.to_digit(16).ok_or("bad \\u escape")?;
                            }
                            s.push(char::from_u32(v).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unsupported escape {other:?}")),
                    },
                    Some((_, c)) => s.push(c),
                    None => return Err("unterminated string".into()),
                }
            }
        };

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        other => return Err(format!("expected '{{', found {other:?}")),
    }
    let mut fields = Vec::new();
    skip_ws(&mut chars);
    if chars.next_if(|&(_, c)| c == '}').is_some() {
        return Ok(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            other => return Err(format!("expected ':' after key {key:?}, found {other:?}")),
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some(&(_, '"')) => JsonScalar::Str(parse_string(&mut chars)?),
            Some(&(_, c)) if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some((_, d)) = chars.next_if(|&(_, c)| c.is_ascii_digit()) {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(d as u64 - '0' as u64))
                        .ok_or_else(|| format!("number overflow in field {key:?}"))?;
                }
                JsonScalar::Num(n)
            }
            other => return Err(format!("unsupported value for key {key:?}: {other:?}")),
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if let Some((_, c)) = chars.next() {
        return Err(format!("trailing input after object: {c:?}"));
    }
    Ok(fields)
}

/// Parses one NDJSON event line into a [`LogicalIoRecord`].
///
/// Thin wrapper over [`parse_event_borrowed`], kept for source
/// compatibility with the original allocating API.
pub fn parse_event(line: &str) -> Result<LogicalIoRecord, String> {
    parse_event_borrowed(line)
}

/// Describes what follows position `i` for an error message, mirroring
/// the `Option<(usize, char)>` debug format of the original
/// char-iterator parser.
fn found_at(line: &str, i: usize) -> String {
    match line[i.min(line.len())..].chars().next() {
        Some(c) => format!("Some(({i}, {c:?}))"),
        None => "None".into(),
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

/// Scans a JSON string literal starting at `b[*i]` (which must be `"`),
/// leaving `*i` one past the closing quote. Returns the **raw** inner
/// slice (escapes untouched) and whether any escape was seen — the
/// zero-copy core: no allocation happens here, ever.
fn scan_string<'a>(line: &'a str, i: &mut usize) -> Result<(&'a str, bool), String> {
    let b = line.as_bytes();
    if *i >= b.len() || b[*i] != b'"' {
        return Err(format!("expected '\"', found {}", found_at(line, *i)));
    }
    *i += 1;
    let start = *i;
    let mut has_escape = false;
    let scan = crate::scan::scanner();
    while *i < b.len() {
        match scan.find_quote_or_backslash(&b[*i..]) {
            Some(p) if b[*i + p] == b'"' => {
                let raw = &line[start..*i + p];
                *i += p + 1;
                return Ok((raw, has_escape));
            }
            Some(p) => {
                has_escape = true;
                *i += p + 2; // skip the escape introducer and the escaped byte
            }
            None => break,
        }
    }
    Err("unterminated string".into())
}

/// Parses the ASCII-digit run starting at `b[*i]` into a `u64`,
/// advancing `*i` past it. The run length comes from one wide
/// [`crate::scan::Scanner::digit_run`] classify (8–32 bytes per step);
/// the fold stays scalar and overflow-checked so every caller keeps its
/// exact error. On `Err` (u64 overflow) the run is still consumed —
/// indistinguishable from the old per-byte loop, since every caller
/// aborts the line on overflow.
#[inline]
fn parse_digit_run(b: &[u8], i: &mut usize) -> Result<u64, ()> {
    let run = crate::scan::scanner().digit_run(&b[*i..]);
    let digits = &b[*i..*i + run];
    *i += run;
    let mut n = 0u64;
    for &d in digits {
        n = n
            .checked_mul(10)
            .and_then(|n| n.checked_add((d - b'0') as u64))
            .ok_or(())?;
    }
    Ok(n)
}

/// Unescapes a raw string slice (cold path — only runs when
/// [`scan_string`] saw a backslash). Validates exactly the escapes the
/// original parser accepted.
fn unescape(raw: &str) -> Result<String, String> {
    let mut s = String::with_capacity(raw.len());
    let mut chars = raw.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '\\' {
            s.push(c);
            continue;
        }
        match chars.next() {
            Some((_, '"')) => s.push('"'),
            Some((_, '\\')) => s.push('\\'),
            Some((_, '/')) => s.push('/'),
            Some((_, 'n')) => s.push('\n'),
            Some((_, 'r')) => s.push('\r'),
            Some((_, 't')) => s.push('\t'),
            Some((_, 'u')) => {
                let mut v: u32 = 0;
                for _ in 0..4 {
                    let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                    v = v * 16 + h.to_digit(16).ok_or("bad \\u escape")?;
                }
                s.push(char::from_u32(v).unwrap_or('\u{fffd}'));
            }
            Some((j, c)) => return Err(format!("unsupported escape Some(({j}, {c:?}))")),
            None => return Err(format!("unsupported escape at {i}")),
        }
    }
    Ok(s)
}

/// Resolves a scanned string token to text, borrowing when it had no
/// escapes.
fn resolve<'a>(raw: &'a str, has_escape: bool) -> Result<Cow<'a, str>, String> {
    if has_escape {
        Ok(Cow::Owned(unescape(raw)?))
    } else {
        Ok(Cow::Borrowed(raw))
    }
}

/// Parses one NDJSON event line into a [`LogicalIoRecord`] without
/// allocating: keys and string values are matched as borrowed slices of
/// `line`, numbers are folded digit-by-digit, and the only allocations
/// are on error paths or for strings that actually contain escapes.
///
/// Field order and whitespace are free, unknown fields are skipped (but
/// still validated). Duplicate keys keep the **first** occurrence —
/// later duplicates are validated syntactically and then skipped like
/// unknown fields (property-tested in `tests/ndjson_prop.rs`).
///
/// A line in exactly the layout [`format_event`] writes takes a
/// byte-for-byte match first; every other line, and every line that
/// match cannot take whole (a number past its range included), goes to
/// the general grammar, which words every error. Both give the same
/// result on every input (property-tested in this module).
pub fn parse_event_borrowed(line: &str) -> Result<LogicalIoRecord, String> {
    match parse_canonical(line.as_bytes()) {
        Some(rec) => Ok(rec),
        None => parse_general(line),
    }
}

/// The layout [`format_event`] writes, matched byte for byte on a raw
/// line: `{"ts":N,"item":N,"offset":N,"len":N,"kind":"Read"|"Write"}`,
/// no whitespace, each number a run of ASCII digits. `None` leaves the
/// line to [`parse_event_borrowed`]: another layout, an overflow, or an
/// `item`/`len` past `u32`.
///
/// A line it takes is ASCII, starts with `{` and ends with `}`, so a
/// caller may try it before any UTF-8 check or trim: both would pass
/// the line unchanged, and [`parse_event_borrowed`] gives the same
/// record.
#[inline]
pub fn parse_canonical(b: &[u8]) -> Option<LogicalIoRecord> {
    let (ts, b) = field(b, b"{\"ts\":")?;
    let (item, b) = field(b, b",\"item\":")?;
    let (offset, b) = field(b, b",\"offset\":")?;
    let (len, b) = field(b, b",\"len\":")?;
    let kind = match b {
        b",\"kind\":\"Read\"}" => IoKind::Read,
        b",\"kind\":\"Write\"}" => IoKind::Write,
        _ => return None,
    };
    Some(LogicalIoRecord {
        ts: Micros(ts),
        item: DataItemId(u32::try_from(item).ok()?),
        offset,
        len: u32::try_from(len).ok()?,
        kind,
    })
}

/// Longest digit run folded without overflow checks: 19 nines are
/// below `u64::MAX`, which has 20 digits.
const UNCHECKED_DIGITS: usize = 19;

/// Strips `key` off `b`, then folds the digit run after it: the value
/// and the bytes past it, or `None` on a mismatch, an empty run, or a
/// `u64` overflow. Only a run longer than [`UNCHECKED_DIGITS`] can
/// overflow, so only such a run is folded with checks.
#[inline]
fn field<'a>(b: &'a [u8], key: &[u8]) -> Option<(u64, &'a [u8])> {
    let b = b.strip_prefix(key)?;
    let run = b
        .iter()
        .position(|d| !d.is_ascii_digit())
        .unwrap_or(b.len());
    let digits = &b[..run];
    let n = match run {
        0 => return None,
        1..=UNCHECKED_DIGITS => digits
            .iter()
            .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0')),
        _ => digits.iter().try_fold(0u64, |n, &d| {
            n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        })?,
    };
    Some((n, &b[run..]))
}

/// The general event grammar behind [`parse_event_borrowed`]: any field
/// order, whitespace, unknown and duplicate fields, escapes, and the
/// text of every parse error.
fn parse_general(line: &str) -> Result<LogicalIoRecord, String> {
    let b = line.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    if i >= b.len() || b[i] != b'{' {
        return Err(format!("expected '{{', found {}", found_at(line, i)));
    }
    i += 1;
    skip_ws(b, &mut i);

    let mut ts = None;
    let mut item = None;
    let mut offset = None;
    let mut len = None;
    let mut kind = None;
    // First-occurrence claims: a key that has appeared (with any value
    // type) owns its slot; later duplicates are skipped.
    let mut ts_seen = false;
    let mut item_seen = false;
    let mut offset_seen = false;
    let mut len_seen = false;
    let mut kind_seen = false;

    if i < b.len() && b[i] == b'}' {
        i += 1; // empty object: fall through to the missing-field errors
    } else {
        loop {
            skip_ws(b, &mut i);
            let (raw_key, key_escaped) = scan_string(line, &mut i)?;
            let key = resolve(raw_key, key_escaped)?;
            skip_ws(b, &mut i);
            if i >= b.len() || b[i] != b':' {
                return Err(format!(
                    "expected ':' after key {key:?}, found {}",
                    found_at(line, i)
                ));
            }
            i += 1;
            skip_ws(b, &mut i);
            if i < b.len() && b[i] == b'"' {
                let (raw, esc) = scan_string(line, &mut i)?;
                let val = resolve(raw, esc)?;
                match key.as_ref() {
                    "kind" if !kind_seen => {
                        kind_seen = true;
                        kind = match val.as_ref() {
                            "Read" => Some(IoKind::Read),
                            "Write" => Some(IoKind::Write),
                            other => return Err(format!("bad kind Str({other:?})")),
                        }
                    }
                    // A string where a number belongs: the first
                    // occurrence claims the key without a numeric value,
                    // so the missing-field error below fires.
                    "ts" => ts_seen = true,
                    "item" => item_seen = true,
                    "offset" => offset_seen = true,
                    "len" => len_seen = true,
                    // Unknown fields and later duplicates are ignored.
                    _ => {}
                }
            } else if i < b.len() && b[i].is_ascii_digit() {
                let n = parse_digit_run(b, &mut i)
                    .map_err(|()| format!("number overflow in field {key:?}"))?;
                match key.as_ref() {
                    "ts" if !ts_seen => {
                        ts_seen = true;
                        ts = Some(n);
                    }
                    "item" if !item_seen => {
                        item_seen = true;
                        item = Some(n);
                    }
                    "offset" if !offset_seen => {
                        offset_seen = true;
                        offset = Some(n);
                    }
                    "len" if !len_seen => {
                        len_seen = true;
                        len = Some(n);
                    }
                    "kind" if !kind_seen => return Err(format!("bad kind Num({n})")),
                    _ => {}
                }
            } else {
                return Err(format!(
                    "unsupported value for key {key:?}: {}",
                    found_at(line, i)
                ));
            }
            skip_ws(b, &mut i);
            match b.get(i) {
                Some(b',') => {
                    i += 1;
                    continue;
                }
                Some(b'}') => {
                    i += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}', found {}", found_at(line, i))),
            }
        }
    }
    skip_ws(b, &mut i);
    if i < b.len() {
        let c = line[i..].chars().next().unwrap();
        return Err(format!("trailing input after object: {c:?}"));
    }
    Ok(LogicalIoRecord {
        ts: Micros(ts.ok_or("missing field \"ts\"")?),
        item: DataItemId(
            u32::try_from(item.ok_or("missing field \"item\"")?)
                .map_err(|_| "item out of range")?,
        ),
        offset: offset.ok_or("missing field \"offset\"")?,
        len: u32::try_from(len.ok_or("missing field \"len\"")?).map_err(|_| "len out of range")?,
        kind: kind.ok_or("missing field \"kind\"")?,
    })
}

/// The `item` field of a net-edge event line: either an explicit
/// numeric catalog id or an application item name to be interned at the
/// ingest edge ([`crate::intern::ItemInterner`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemField {
    /// `"item": 7` — a pre-registered numeric id.
    Id(u32),
    /// `"item": "db/users.ibd"` — a name the ingest edge resolves.
    Name(String),
}

/// A parsed net-edge event whose item may still be a name — everything
/// else matches [`LogicalIoRecord`] field for field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedEvent {
    /// Event timestamp.
    pub ts: Micros,
    /// Numeric id or not-yet-interned name.
    pub item: ItemField,
    /// Byte offset within the item.
    pub offset: u64,
    /// I/O length in bytes.
    pub len: u32,
    /// Read or write.
    pub kind: IoKind,
}

/// [`parse_event_borrowed`] for the socket ingest edge: identical
/// grammar, except the `item` field may also be a JSON **string** naming
/// the item. Numeric-item lines take the exact borrowed fast path;
/// named lines re-parse accepting the string form.
pub fn parse_event_named(line: &str) -> Result<NamedEvent, String> {
    match parse_event_borrowed(line) {
        Ok(rec) => Ok(NamedEvent {
            ts: rec.ts,
            item: ItemField::Id(rec.item.0),
            offset: rec.offset,
            len: rec.len,
            kind: rec.kind,
        }),
        Err(first) => parse_event_named_slow(line).map_err(|_| first),
    }
}

/// The named-item slow path: full parse with `"item"` allowed to be a
/// string. Only consulted when the borrowed parser rejected the line, so
/// its own error is discarded in favor of the fast path's (which named
/// callers see for genuinely malformed lines).
fn parse_event_named_slow(line: &str) -> Result<NamedEvent, ()> {
    let b = line.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    if i >= b.len() || b[i] != b'{' {
        return Err(());
    }
    i += 1;
    skip_ws(b, &mut i);

    let mut ts = None;
    let mut item: Option<ItemField> = None;
    let mut offset = None;
    let mut len = None;
    let mut kind = None;
    let mut ts_seen = false;
    let mut item_seen = false;
    let mut offset_seen = false;
    let mut len_seen = false;
    let mut kind_seen = false;

    if i < b.len() && b[i] == b'}' {
        i += 1;
    } else {
        loop {
            skip_ws(b, &mut i);
            let (raw_key, key_escaped) = scan_string(line, &mut i).map_err(|_| ())?;
            let key = resolve(raw_key, key_escaped).map_err(|_| ())?;
            skip_ws(b, &mut i);
            if i >= b.len() || b[i] != b':' {
                return Err(());
            }
            i += 1;
            skip_ws(b, &mut i);
            if i < b.len() && b[i] == b'"' {
                let (raw, esc) = scan_string(line, &mut i).map_err(|_| ())?;
                let val = resolve(raw, esc).map_err(|_| ())?;
                match key.as_ref() {
                    "kind" if !kind_seen => {
                        kind_seen = true;
                        kind = match val.as_ref() {
                            "Read" => Some(IoKind::Read),
                            "Write" => Some(IoKind::Write),
                            _ => return Err(()),
                        }
                    }
                    // The one divergence from the borrowed parser: a
                    // string item is a name, not a claimed-then-missing
                    // numeric field.
                    "item" if !item_seen => {
                        item_seen = true;
                        item = Some(ItemField::Name(val.into_owned()));
                    }
                    "ts" => ts_seen = true,
                    "offset" => offset_seen = true,
                    "len" => len_seen = true,
                    _ => {}
                }
            } else if i < b.len() && b[i].is_ascii_digit() {
                let n = parse_digit_run(b, &mut i)?;
                match key.as_ref() {
                    "ts" if !ts_seen => {
                        ts_seen = true;
                        ts = Some(n);
                    }
                    "item" if !item_seen => {
                        item_seen = true;
                        item = Some(ItemField::Id(u32::try_from(n).map_err(|_| ())?));
                    }
                    "offset" if !offset_seen => {
                        offset_seen = true;
                        offset = Some(n);
                    }
                    "len" if !len_seen => {
                        len_seen = true;
                        len = Some(n);
                    }
                    "kind" if !kind_seen => return Err(()),
                    _ => {}
                }
            } else {
                return Err(());
            }
            skip_ws(b, &mut i);
            match b.get(i) {
                Some(b',') => {
                    i += 1;
                    continue;
                }
                Some(b'}') => {
                    i += 1;
                    break;
                }
                _ => return Err(()),
            }
        }
    }
    skip_ws(b, &mut i);
    if i < b.len() {
        return Err(());
    }
    Ok(NamedEvent {
        ts: Micros(ts.ok_or(())?),
        item: item.ok_or(())?,
        offset: offset.ok_or(())?,
        len: u32::try_from(len.ok_or(())?).map_err(|_| ())?,
        kind: kind.ok_or(())?,
    })
}

/// Splits the elements of a flat JSON array of objects (no nested arrays),
/// returning each element's source text. Strings with escapes are handled.
pub fn split_array_of_objects(s: &str) -> Result<Vec<&str>, String> {
    let s = s.trim();
    let inner = s
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or("expected a JSON array")?;
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.checked_sub(1).ok_or("unbalanced '}'")?;
                if depth == 0 {
                    let st = start.take().ok_or("unbalanced '}'")?;
                    parts.push(&inner[st..=i]);
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err("truncated JSON array".into());
    }
    Ok(parts)
}

/// A streaming reader over NDJSON event lines: yields one record per
/// non-blank, non-comment (`#`) line, without loading the input into
/// memory.
pub struct EventReader<R: BufRead> {
    inner: R,
    line: String,
    lineno: u64,
}

impl<R: BufRead> EventReader<R> {
    /// Wraps a buffered reader.
    pub fn new(inner: R) -> Self {
        EventReader {
            inner,
            line: String::new(),
            lineno: 0,
        }
    }
}

impl<R: BufRead> Iterator for EventReader<R> {
    type Item = std::io::Result<LogicalIoRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.line.clear();
            match self.inner.read_line(&mut self.line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(e)),
            }
            self.lineno += 1;
            let line = self.line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            return Some(parse_event(line).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line {}: {e}", self.lineno),
                )
            }));
        }
    }
}

/// Reads a whole NDJSON trace (as [`write_events`] writes it) into a
/// [`LogicalTrace`].
///
/// Blank and `#` lines are skipped; records are re-sorted by timestamp so
/// that concatenated per-stream files parse into a valid trace.
pub fn read_jsonl<R: BufRead>(r: R) -> std::io::Result<LogicalTrace> {
    let records: Vec<LogicalIoRecord> = EventReader::new(r).collect::<std::io::Result<_>>()?;
    Ok(LogicalTrace::from_unsorted(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn jsonl_roundtrip() {
        let trace = LogicalTrace::from_unsorted(vec![
            LogicalIoRecord {
                ts: Micros::from_secs(1),
                item: DataItemId(1),
                offset: 0,
                len: 4096,
                kind: IoKind::Read,
            },
            LogicalIoRecord {
                ts: Micros::from_secs(2),
                item: DataItemId(2),
                offset: 8192,
                len: 512,
                kind: IoKind::Write,
            },
        ]);
        let mut buf = Vec::new();
        write_events(trace.records(), &mut buf).unwrap();
        let back = read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn jsonl_skips_blank_lines_and_resorts() {
        let text = concat!(
            r#"{"ts":2000000,"item":2,"offset":0,"len":512,"kind":"Write"}"#,
            "\n\n",
            r#"{"ts":1000000,"item":1,"offset":0,"len":4096,"kind":"Read"}"#,
            "\n"
        );
        let trace = read_jsonl(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.records()[0].item, DataItemId(1));
    }

    #[test]
    fn jsonl_rejects_garbage() {
        let err = read_jsonl("not json\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn jsonl_empty_input_is_empty_trace() {
        let trace = read_jsonl("".as_bytes()).unwrap();
        assert!(trace.is_empty());
    }

    #[test]
    fn named_parser_accepts_both_item_forms() {
        let byid =
            parse_event_named(r#"{"ts":5,"item":7,"offset":0,"len":512,"kind":"Read"}"#).unwrap();
        assert_eq!(byid.item, ItemField::Id(7));
        assert_eq!(byid.ts, Micros(5));
        let named = parse_event_named(
            r#"{"ts":5,"item":"db/users tbl","offset":4096,"len":512,"kind":"Write"}"#,
        )
        .unwrap();
        assert_eq!(named.item, ItemField::Name("db/users tbl".into()));
        assert_eq!(named.kind, IoKind::Write);
        assert_eq!(named.offset, 4096);
        // Escapes resolve in names exactly as in other strings.
        let esc = parse_event_named(r#"{"ts":1,"item":"a\tb","offset":0,"len":1,"kind":"Read"}"#)
            .unwrap();
        assert_eq!(esc.item, ItemField::Name("a\tb".into()));
    }

    #[test]
    fn named_parser_keeps_the_borrowed_error_surface() {
        // Malformed lines report the borrowed parser's message so the
        // net edge's `line N:` errors match the file front end's.
        let err = parse_event_named(r#"{"ts":5,"offset":0,"len":512,"kind":"Read"}"#).unwrap_err();
        assert_eq!(err, "missing field \"item\"");
        let err = parse_event_named("not json").unwrap_err();
        assert!(err.starts_with("expected '{'"), "{err}");
        // A string where only numbers belong still fails.
        assert!(
            parse_event_named(r#"{"ts":"5","item":1,"offset":0,"len":1,"kind":"Read"}"#).is_err()
        );
    }

    fn rec(ts: u64, item: u32, kind: IoKind) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: Micros(ts),
            item: DataItemId(item),
            offset: 8192,
            len: 4096,
            kind,
        }
    }

    #[test]
    fn format_matches_serde_json_layout() {
        // The literal layout `serde_json` produces for this record; the
        // hand-rolled writer must stay byte-compatible so traces written
        // online and offline interoperate.
        assert_eq!(
            format_event(&rec(1_000_000, 1, IoKind::Read)),
            r#"{"ts":1000000,"item":1,"offset":8192,"len":4096,"kind":"Read"}"#
        );
    }

    #[test]
    fn roundtrip() {
        for kind in [IoKind::Read, IoKind::Write] {
            let r = rec(123_456_789, 42, kind);
            assert_eq!(parse_event(&format_event(&r)).unwrap(), r);
        }
    }

    #[test]
    fn parse_tolerates_field_order_and_whitespace() {
        let r = parse_event(r#" { "kind" : "Write", "len":512, "offset": 0, "item":7, "ts":99 } "#)
            .unwrap();
        assert_eq!(r, rec2(99, 7, 0, 512, IoKind::Write));
    }

    fn rec2(ts: u64, item: u32, offset: u64, len: u32, kind: IoKind) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: Micros(ts),
            item: DataItemId(item),
            offset,
            len,
            kind,
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_event("").is_err());
        assert!(parse_event("{").is_err());
        assert!(parse_event(r#"{"ts":1}"#).is_err(), "missing fields");
        assert!(parse_event(r#"{"ts":1,"item":1,"offset":0,"len":4096,"kind":"Scan"}"#).is_err());
        assert!(parse_event(r#"{"ts":-5,"item":1,"offset":0,"len":1,"kind":"Read"}"#).is_err());
        assert!(
            parse_event(r#"{"ts":1,"item":1,"offset":0,"len":4096,"kind":"Read"}x"#).is_err(),
            "trailing garbage"
        );
    }

    #[test]
    fn reader_skips_blanks_and_comments() {
        let input = "# header\n\n{\"ts\":1,\"item\":0,\"offset\":0,\"len\":1,\"kind\":\"Read\"}\n\
                     {\"ts\":2,\"item\":0,\"offset\":0,\"len\":1,\"kind\":\"Write\"}\n";
        let recs: Vec<_> = EventReader::new(input.as_bytes())
            .collect::<std::io::Result<_>>()
            .unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts, Micros(1));
        assert_eq!(recs[1].kind, IoKind::Write);
    }

    #[test]
    fn reader_reports_line_numbers() {
        let input = "{\"ts\":1,\"item\":0,\"offset\":0,\"len\":1,\"kind\":\"Read\"}\nnot json\n";
        let err = EventReader::new(input.as_bytes())
            .collect::<std::io::Result<Vec<_>>>()
            .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn write_events_roundtrip() {
        let recs = vec![rec(1, 0, IoKind::Read), rec(2, 1, IoKind::Write)];
        let mut buf = Vec::new();
        write_events(&recs, &mut buf).unwrap();
        let back: Vec<_> = EventReader::new(&buf[..])
            .collect::<std::io::Result<_>>()
            .unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn split_array_handles_strings_and_whitespace() {
        let parts =
            split_array_of_objects("[\n  {\"name\":\"a{b,c}\"},\n  {\"name\":\"d\\\"e\"}\n]")
                .unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(
            parse_flat_object(parts[0]).unwrap(),
            vec![("name".to_string(), JsonScalar::Str("a{b,c}".into()))]
        );
        assert_eq!(
            parse_flat_object(parts[1]).unwrap()[0].1,
            JsonScalar::Str("d\"e".into())
        );
        assert!(split_array_of_objects("{}").is_err());
        assert_eq!(split_array_of_objects("[]").unwrap().len(), 0);
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_escape_every_control_byte() {
        // Every byte < 0x20 escapes, alone and mid-string, exactly as
        // `format!("\\u{:04x}")` would spell the generic ones.
        for b in 0u8..0x20 {
            let c = b as char;
            let expected = match c {
                '\n' => "\\n".to_string(),
                '\r' => "\\r".to_string(),
                '\t' => "\\t".to_string(),
                c => format!("\\u{:04x}", c as u32),
            };
            assert_eq!(json_escape(&c.to_string()), expected, "byte {b:#04x}");
            let embedded = format!("pre{c}post");
            assert_eq!(
                json_escape(&embedded),
                format!("pre{expected}post"),
                "byte {b:#04x} embedded"
            );
        }
        // The clean prefix ahead of the first escape survives verbatim,
        // including multi-byte characters.
        assert_eq!(json_escape("tést\u{1f}"), "tést\\u001f");
    }

    #[test]
    fn json_escape_borrows_when_clean() {
        assert!(matches!(
            json_escape("fileserver.trace.jsonl"),
            Cow::Borrowed(_)
        ));
        assert!(matches!(json_escape("täble→ éñcoding"), Cow::Borrowed(_)));
        assert!(matches!(json_escape("a\"b"), Cow::Owned(_)));
    }

    /// The original parse path, reconstructed over [`parse_flat_object`]:
    /// the reference the zero-copy parser must agree with, input by input.
    fn parse_event_via_flat_object(line: &str) -> Result<LogicalIoRecord, String> {
        let fields = parse_flat_object(line)?;
        let mut ts = None;
        let mut item = None;
        let mut offset = None;
        let mut len = None;
        let mut kind = None;
        let mut seen: Vec<&str> = Vec::new();
        for (key, value) in &fields {
            // First occurrence claims the key; later duplicates are
            // skipped — the rule both production parsers implement.
            if seen.contains(&key.as_str()) {
                continue;
            }
            match key.as_str() {
                "ts" => ts = value.as_u64(),
                "item" => item = value.as_u64(),
                "offset" => offset = value.as_u64(),
                "len" => len = value.as_u64(),
                "kind" => {
                    kind = match value.as_str() {
                        Some("Read") => Some(IoKind::Read),
                        Some("Write") => Some(IoKind::Write),
                        _ => return Err(format!("bad kind {value:?}")),
                    }
                }
                _ => {}
            }
            seen.push(key.as_str());
        }
        Ok(LogicalIoRecord {
            ts: Micros(ts.ok_or("missing field \"ts\"")?),
            item: DataItemId(
                u32::try_from(item.ok_or("missing field \"item\"")?)
                    .map_err(|_| "item out of range")?,
            ),
            offset: offset.ok_or("missing field \"offset\"")?,
            len: u32::try_from(len.ok_or("missing field \"len\"")?)
                .map_err(|_| "len out of range")?,
            kind: kind.ok_or("missing field \"kind\"")?,
        })
    }

    /// Every well-formed and malformed shape the test corpus exercises:
    /// the borrowed parser must accept/reject exactly what the original
    /// flat-object route does, and agree on every parsed record.
    #[test]
    fn borrowed_parser_agrees_with_flat_object_route() {
        let corpus = [
            r#"{"ts":1000000,"item":1,"offset":0,"len":4096,"kind":"Read"}"#,
            r#" { "kind" : "Write", "len":512, "offset": 0, "item":7, "ts":99 } "#,
            r#"{"ts":1,"item":1,"offset":0,"len":4096,"kind":"Write","extra":"x"}"#,
            r#"{"ts":1,"item":1,"offset":0,"len":4096,"kind":"Read","note":"a\"b\\c\nd"}"#,
            r#"{"ts":1,"ts":2,"item":1,"offset":0,"len":4096,"kind":"Read"}"#,
            r#"{"ts":"1","item":1,"offset":0,"len":4096,"kind":"Read"}"#,
            r#"{"ts":"x","ts":5,"item":1,"offset":0,"len":4096,"kind":"Read"}"#,
            r#"{"ts":5,"ts":"x","item":1,"offset":0,"len":4096,"kind":"Read"}"#,
            r#"{"kind":"Read","kind":"Scan","ts":1,"item":1,"offset":0,"len":4096}"#,
            r#"{"kind":"Read","kind":5,"ts":1,"item":1,"offset":0,"len":4096}"#,
            r#"{"item":2,"item":3,"ts":1,"offset":0,"len":4096,"kind":"Write"}"#,
            "",
            "{",
            "{}",
            "{} x",
            r#"{"ts":1}"#,
            r#"{"ts":1,"item":1,"offset":0,"len":4096,"kind":"Scan"}"#,
            r#"{"ts":1,"item":1,"offset":0,"len":4096,"kind":5}"#,
            r#"{"ts":-5,"item":1,"offset":0,"len":1,"kind":"Read"}"#,
            r#"{"ts":1,"item":1,"offset":0,"len":4096,"kind":"Read"}x"#,
            r#"{"ts":1,"item":99999999999,"offset":0,"len":1,"kind":"Read"}"#,
            r#"{"ts":99999999999999999999999999,"item":1,"offset":0,"len":1,"kind":"Read"}"#,
            r#"{"ts":1 "item":1}"#,
            r#"{"ts" 1}"#,
            r#"{ts:1}"#,
            r#"{"ts":1,"item":1,"offset":0,"len":1,"kind":"Read""#,
            r#"{"ts":1,"item":1,"offset":0,"len":1,"kind":"Rea"#,
            r#"{"bad\qescape":"v","ts":1,"item":1,"offset":0,"len":1,"kind":"Read"}"#,
        ];
        for line in corpus {
            let new = parse_event_borrowed(line);
            let old = parse_event_via_flat_object(line);
            assert_eq!(
                new.is_ok(),
                old.is_ok(),
                "verdicts diverge on {line:?}: new={new:?} old={old:?}"
            );
            if let (Ok(a), Ok(b)) = (&new, &old) {
                assert_eq!(a, b, "records diverge on {line:?}");
            }
        }
    }

    #[test]
    fn canonical_match_takes_exactly_the_written_layout() {
        let edges = [
            rec2(0, 0, 0, 0, IoKind::Read),
            rec2(u64::MAX, u32::MAX, u64::MAX, u32::MAX, IoKind::Write),
            rec2(1_000_000, 7, 8192, 4096, IoKind::Read),
        ];
        for r in edges {
            assert_eq!(parse_canonical(format_event(&r).as_bytes()), Some(r));
        }
        // Leading zeros fold like the general grammar's digit runs.
        assert_eq!(
            parse_canonical(br#"{"ts":007,"item":00,"offset":0,"len":01,"kind":"Read"}"#),
            Some(rec2(7, 0, 0, 1, IoKind::Read))
        );
        // The longest unchecked run, and checked runs one digit longer.
        for (ts, want) in [
            ("9999999999999999999", 9_999_999_999_999_999_999),
            ("00000000000000000001", 1),
            ("18446744073709551615", u64::MAX),
        ] {
            let line = format!(r#"{{"ts":{ts},"item":1,"offset":2,"len":3,"kind":"Write"}}"#);
            assert_eq!(
                parse_canonical(line.as_bytes()),
                Some(rec2(want, 1, 2, 3, IoKind::Write)),
                "{ts}"
            );
        }
        // Everything else is the general grammar's to parse or word.
        for other in [
            r#"{"ts":18446744073709551616,"item":1,"offset":0,"len":1,"kind":"Read"}"#,
            r#"{"ts":1,"item":4294967296,"offset":0,"len":1,"kind":"Read"}"#,
            r#"{"ts":1,"item":1,"offset":0,"len":4294967296,"kind":"Read"}"#,
            r#"{"ts":1,"item":1,"offset":0,"len":1,"kind":"Read"} "#,
            r#"{"ts": 1,"item":1,"offset":0,"len":1,"kind":"Read"}"#,
            r#"{"ts":,"item":1,"offset":0,"len":1,"kind":"Read"}"#,
            r#"{"item":1,"ts":1,"offset":0,"len":1,"kind":"Read"}"#,
            r#"{"ts":1,"item":1,"offset":0,"len":1,"kind":"Scan"}"#,
            r#"{"ts":1,"item":1,"offset":0,"len":1,"kind":"Read","x":1}"#,
            r#"{"ts":1,"item":1,"offset":0,"len":1,"kind":"Read"}}"#,
        ] {
            assert_eq!(parse_canonical(other.as_bytes()), None, "{other}");
        }
    }

    /// Digit spellings at the edges of the `u32` and `u64` ranges, with
    /// a few arbitrary values between.
    fn edge_number() -> impl Strategy<Value = String> {
        prop_oneof![
            3 => any::<u64>().prop_map(|n| n.to_string()),
            2 => any::<u32>().prop_map(|n| n.to_string()),
            1 => (0u64..20).prop_map(|n| n.to_string()),
            1 => prop::sample::select(vec![
                u32::MAX.to_string(),
                (u64::from(u32::MAX) + 1).to_string(),
                u64::MAX.to_string(),
                (u64::MAX - 1).to_string(),
                "18446744073709551616".to_string(), // u64::MAX + 1
                "99999999999999999999".to_string(),
            ]),
        ]
    }

    /// One byte edit: 0 inserts, 1 deletes, 2 substitutes, at a position
    /// taken modulo the line length; the byte is drawn mostly from the
    /// grammar's own alphabet.
    fn edit() -> impl Strategy<Value = (u8, usize, u8)> {
        let byte = prop_oneof![
            3 => prop::sample::select(b"0123456789{}\":,. \t\\-eiklnorstuxRW".to_vec()),
            1 => any::<u8>(),
        ];
        (0u8..3, 0usize..256, byte)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Arbitrary bytes: no panic, and exactly the general grammar's
        /// record or error text.
        #[test]
        fn fast_path_agrees_with_the_general_grammar_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let line = String::from_utf8_lossy(&bytes);
            prop_assert_eq!(parse_event_borrowed(&line), parse_general(&line));
        }

        /// Written-layout lines at the number edges, with leading zeros,
        /// then up to three byte edits: the same `Ok` record or the same
        /// `Err` text as the general grammar.
        #[test]
        fn fast_path_agrees_with_the_general_grammar_on_edited_lines(
            numbers in (edge_number(), edge_number(), edge_number(), edge_number()),
            zeros in (0usize..3, 0usize..3, 0usize..3, 0usize..3),
            write in any::<bool>(),
            edits in prop::collection::vec(edit(), 0..4),
        ) {
            let z = |n: usize, v: &str| format!("{}{v}", "0".repeat(n));
            let mut bytes = format!(
                "{{\"ts\":{},\"item\":{},\"offset\":{},\"len\":{},\"kind\":\"{}\"}}",
                z(zeros.0, &numbers.0),
                z(zeros.1, &numbers.1),
                z(zeros.2, &numbers.2),
                z(zeros.3, &numbers.3),
                if write { "Write" } else { "Read" },
            )
            .into_bytes();
            for (op, at, byte) in edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 => bytes.insert(at, byte),
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ if at < bytes.len() => bytes[at] = byte,
                    _ => bytes.push(byte),
                }
            }
            let line = String::from_utf8_lossy(&bytes);
            prop_assert_eq!(parse_event_borrowed(&line), parse_general(&line));
        }
    }

    #[test]
    fn swar_scanners_match_naive() {
        let hay = b"{\"ts\":1,\"item\":2,\"offset\":0,\"len\":4096,\"kind\":\"Read\"}\n";
        for needle in [b'\n', b'"', b'\\', b'x', b'{'] {
            assert_eq!(
                find_byte(hay, needle),
                hay.iter().position(|&b| b == needle),
                "needle {needle:?}"
            );
        }
        assert_eq!(find_byte2(hay, b'"', b'\\'), Some(1));
        assert_eq!(find_byte2(b"plain text", b'"', b'\\'), None);
        assert_eq!(count_byte(b"a\nbb\n\nc", b'\n'), 3);
        assert_eq!(count_byte(b"", b'\n'), 0);
        // Lane-boundary cases: hits at every offset within a word.
        for i in 0..24usize {
            let mut v = vec![b'.'; 24];
            v[i] = b'\n';
            assert_eq!(find_byte(&v, b'\n'), Some(i));
            assert_eq!(count_byte(&v, b'\n'), 1);
        }
        // The 0x0b-adjacent-to-0x0a borrow case that breaks the inexact
        // zero-byte trick: the exact marks must not overcount.
        assert_eq!(count_byte(&[0x0a, 0x0b, 0x0a, 0x0b, 0, 0, 0, 0], 0x0a), 2);
    }
}
