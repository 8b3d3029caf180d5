//! Crash-safe controller checkpoints: the `ees.checkpoint.v1` codec.
//!
//! A checkpoint captures everything the online controller needs to resume
//! mid-stream and still emit byte-identical plans: the
//! [`ControllerState`] (planner history, §V.D trigger arming, mid-period
//! per-item classification), the placement and sequential-set view the
//! controller plans against, and the ingest watermark (`events`,
//! `last_ts`) so a restarted reader knows how far the stream had been
//! consumed.
//!
//! The format is a hand-rolled whitespace-separated token stream in the
//! spirit of the existing `ees.report.v1` JSON writer: versioned by its
//! first token, no external dependencies, and strictly validated on
//! decode (every section is introduced by a keyword token and every
//! collection is length-prefixed, so truncation is always detected).
//! Floats are stored as the hex of their IEEE-754 bits — checkpoints
//! round-trip *exactly*, which the byte-identical-plans property
//! requires.
//!
//! Files are written atomically (temp file + rename) so a crash during
//! checkpointing leaves the previous checkpoint intact.

use crate::classify::ItemCheckpoint;
use crate::controller::ControllerState;
use crate::error::OnlineError;
use ees_core::{
    ArmedTriggersState, LogicalIoPattern, MonitorHistoryState, PatternMix, PeriodRecord,
    PlannerState, TriggersState,
};
use ees_iotrace::{DataItemId, EnclosureId, IntervalBuilderState, IoSequence, Micros, Span};
use ees_simstorage::PlacementMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

/// Version tag — the first token of every checkpoint.
pub const CHECKPOINT_VERSION: &str = "ees.checkpoint.v1";

/// A complete restart point for the online controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerCheckpoint {
    /// Accepted events folded into the controller so far — the restart
    /// skips this many accepted events before resuming the fold.
    pub events: u64,
    /// Timestamp of the last folded record.
    pub last_ts: Micros,
    /// Placement view at the checkpoint: `(item, enclosure, size)`,
    /// in item order.
    pub placement: Vec<(DataItemId, EnclosureId, u64)>,
    /// Items marked sequentially accessed, in item order.
    pub sequential: Vec<DataItemId>,
    /// The ingest-edge interner's name table in id order (index `i` is
    /// the name of id `floor + i`, where the floor is the first id past
    /// the numeric catalog). Empty when the run never interned a name.
    /// Carried so a restore re-binds every name to the same dense id —
    /// the property that keeps named-stream restores byte-identical.
    pub names: Vec<String>,
    /// The controller's dynamic state.
    pub state: ControllerState,
}

impl ControllerCheckpoint {
    /// A checkpoint of `state` at ingest position `events` / `last_ts`
    /// over the storage view `placement` / `sequential`, with an empty
    /// name table (the ingest edge fills it in).
    pub(crate) fn capture(
        events: u64,
        last_ts: Micros,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
        state: ControllerState,
    ) -> Self {
        ControllerCheckpoint {
            events,
            last_ts,
            placement: placement
                .iter()
                .map(|(id, pl)| (id, pl.enclosure, pl.size))
                .collect(),
            sequential: sequential.iter().copied().collect(),
            names: Vec::new(),
            state,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoder: typed token pushes onto a String.

struct Enc {
    out: String,
    col: usize,
}

impl Enc {
    fn new() -> Self {
        Enc {
            out: String::new(),
            col: 0,
        }
    }

    fn tok(&mut self, t: &str) {
        // Soft-wrap at 100 columns purely for human readability; the
        // decoder splits on any whitespace.
        if self.col == 0 {
            self.out.push_str(t);
            self.col = t.len();
        } else if self.col + 1 + t.len() > 100 {
            self.out.push('\n');
            self.out.push_str(t);
            self.col = t.len();
        } else {
            self.out.push(' ');
            self.out.push_str(t);
            self.col += 1 + t.len();
        }
    }

    /// Pushes an ASCII token formatted into a stack buffer.
    fn tok_ascii(&mut self, t: &[u8]) {
        self.tok(std::str::from_utf8(t).expect("ASCII token"));
    }

    fn u64(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.tok_ascii(&buf[at..]);
    }

    /// The value's bit pattern as 16 lower-case hex digits.
    fn f64(&mut self, v: f64) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bits = v.to_bits();
        let mut buf = [0u8; 16];
        for (k, b) in buf.iter_mut().enumerate() {
            *b = HEX[(bits >> (60 - 4 * k)) as usize & 0xf];
        }
        self.tok_ascii(&buf);
    }

    fn micros(&mut self, v: Micros) {
        self.u64(v.0);
    }

    fn span(&mut self, s: Span) {
        self.micros(s.start);
        self.micros(s.end);
    }

    fn seq(&mut self, q: &IoSequence) {
        self.micros(q.start);
        self.micros(q.end);
        self.u64(q.reads);
        self.u64(q.writes);
    }

    fn pattern(&mut self, p: LogicalIoPattern) {
        self.tok(match p {
            LogicalIoPattern::P0 => "P0",
            LogicalIoPattern::P1 => "P1",
            LogicalIoPattern::P2 => "P2",
            LogicalIoPattern::P3 => "P3",
        });
    }

    /// Item names may contain whitespace, so they travel as a single
    /// `n`-prefixed token of hex-encoded UTF-8 bytes (`n` alone is the
    /// empty name).
    fn name(&mut self, s: &str) {
        let mut t = String::with_capacity(1 + 2 * s.len());
        t.push('n');
        for b in s.bytes() {
            let _ = write!(t, "{b:02x}");
        }
        self.tok(&t);
    }
}

// ---------------------------------------------------------------------------
// Decoder: typed token pulls with keyword validation.

struct Dec<'a> {
    toks: std::str::SplitWhitespace<'a>,
    /// One token of lookahead for optional sections ([`Self::peek`]).
    pending: Option<&'a str>,
}

type DecResult<T> = Result<T, OnlineError>;

fn bad(msg: impl Into<String>) -> OnlineError {
    OnlineError::Checkpoint(msg.into())
}

impl<'a> Dec<'a> {
    fn new(text: &'a str) -> Self {
        Dec {
            toks: text.split_whitespace(),
            pending: None,
        }
    }

    fn tok(&mut self) -> DecResult<&'a str> {
        if let Some(t) = self.pending.take() {
            return Ok(t);
        }
        self.toks.next().ok_or_else(|| bad("truncated checkpoint"))
    }

    /// Looks at the next token without consuming it; the following
    /// [`tok`](Self::tok) returns the same token.
    fn peek(&mut self) -> Option<&'a str> {
        if self.pending.is_none() {
            self.pending = self.toks.next();
        }
        self.pending
    }

    fn expect(&mut self, kw: &str) -> DecResult<()> {
        let t = self.tok()?;
        if t == kw {
            Ok(())
        } else {
            Err(bad(format!("expected `{kw}`, found `{t}`")))
        }
    }

    fn u64(&mut self) -> DecResult<u64> {
        let t = self.tok()?;
        t.parse().map_err(|_| bad(format!("bad integer `{t}`")))
    }

    /// An integer token that must fit `T`: checkpoints are untrusted, so
    /// an out-of-range value is an error, never a truncation.
    fn int<T: TryFrom<u64>>(&mut self, what: &str) -> DecResult<T> {
        let v = self.u64()?;
        T::try_from(v).map_err(|_| bad(format!("{what} `{v}` out of range")))
    }

    fn usize(&mut self) -> DecResult<usize> {
        self.int("count")
    }

    fn u32(&mut self) -> DecResult<u32> {
        self.int("counter")
    }

    fn item(&mut self) -> DecResult<DataItemId> {
        self.int("item id").map(DataItemId)
    }

    fn enclosure(&mut self) -> DecResult<EnclosureId> {
        self.int("enclosure id").map(EnclosureId)
    }

    fn f64(&mut self) -> DecResult<f64> {
        let t = self.tok()?;
        u64::from_str_radix(t, 16)
            .map(f64::from_bits)
            .map_err(|_| bad(format!("bad float bits `{t}`")))
    }

    fn micros(&mut self) -> DecResult<Micros> {
        Ok(Micros(self.u64()?))
    }

    fn span(&mut self) -> DecResult<Span> {
        Ok(Span {
            start: self.micros()?,
            end: self.micros()?,
        })
    }

    fn seq(&mut self) -> DecResult<IoSequence> {
        Ok(IoSequence {
            start: self.micros()?,
            end: self.micros()?,
            reads: self.u64()?,
            writes: self.u64()?,
        })
    }

    fn pattern(&mut self) -> DecResult<LogicalIoPattern> {
        match self.tok()? {
            "P0" => Ok(LogicalIoPattern::P0),
            "P1" => Ok(LogicalIoPattern::P1),
            "P2" => Ok(LogicalIoPattern::P2),
            "P3" => Ok(LogicalIoPattern::P3),
            t => Err(bad(format!("bad pattern `{t}`"))),
        }
    }

    fn name(&mut self) -> DecResult<String> {
        let t = self.tok()?;
        let err = || bad(format!("bad name token `{t}`"));
        let hex = t.strip_prefix('n').ok_or_else(err)?;
        if hex.len() % 2 != 0 {
            return Err(err());
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for i in (0..hex.len()).step_by(2) {
            bytes.push(u8::from_str_radix(&hex[i..i + 2], 16).map_err(|_| err())?);
        }
        String::from_utf8(bytes).map_err(|_| err())
    }
}

// ---------------------------------------------------------------------------
// Section encoders/decoders.

fn enc_history(e: &mut Enc, h: &MonitorHistoryState) {
    e.tok("history");
    e.u64(h.periods.len() as u64);
    for p in &h.periods {
        e.span(p.period);
        e.u64(p.mix.p0 as u64);
        e.u64(p.mix.p1 as u64);
        e.u64(p.mix.p2 as u64);
        e.u64(p.mix.p3 as u64);
        e.u64(p.changed as u64);
    }
    e.u64(h.last_pattern.len() as u64);
    for &(id, p, seen) in &h.last_pattern {
        e.u64(id.0 as u64);
        e.pattern(p);
        e.u64(seen);
    }
    e.u64(h.retention as u64);
    // Optional ring-state extension: absent whenever the history still
    // matches the pre-ring defaults (nothing pruned, default capacity),
    // which keeps checkpoints from such runs byte-identical to the
    // format before the extension existed.
    if h.dropped != 0 || h.period_cap != ees_core::DEFAULT_PERIOD_CAP {
        e.tok("ring");
        e.u64(h.period_cap as u64);
        e.u64(h.dropped);
        e.u64(h.dropped_total);
        e.u64(h.dropped_changed);
    }
}

fn dec_history(d: &mut Dec) -> DecResult<MonitorHistoryState> {
    d.expect("history")?;
    let n = d.usize()?;
    let mut periods = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let period = d.span()?;
        let mix = PatternMix {
            p0: d.usize()?,
            p1: d.usize()?,
            p2: d.usize()?,
            p3: d.usize()?,
        };
        let changed = d.usize()?;
        periods.push(PeriodRecord {
            period,
            mix,
            changed,
        });
    }
    let n = d.usize()?;
    let mut last_pattern = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let id = d.item()?;
        let p = d.pattern()?;
        let seen = d.u64()?;
        last_pattern.push((id, p, seen));
    }
    let retention = d.usize()?;
    let (period_cap, dropped, dropped_total, dropped_changed) = if d.peek() == Some("ring") {
        d.expect("ring")?;
        (d.usize()?, d.u64()?, d.u64()?, d.u64()?)
    } else {
        (ees_core::DEFAULT_PERIOD_CAP, 0, 0, 0)
    };
    Ok(MonitorHistoryState {
        periods,
        last_pattern,
        retention,
        period_cap,
        dropped,
        dropped_total,
        dropped_changed,
    })
}

fn enc_planner(e: &mut Enc, p: &PlannerState) {
    e.tok("planner");
    enc_history(e, &p.history);
    e.u64(p.last_preload.len() as u64);
    for &(id, size) in &p.last_preload {
        e.u64(id.0 as u64);
        e.u64(size);
    }
    e.u64(p.last_write_delay.len() as u64);
    for &id in &p.last_write_delay {
        e.u64(id.0 as u64);
    }
    e.f64(p.imax_smooth);
}

fn dec_planner(d: &mut Dec) -> DecResult<PlannerState> {
    d.expect("planner")?;
    let history = dec_history(d)?;
    let n = d.usize()?;
    let mut last_preload = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        last_preload.push((d.item()?, d.u64()?));
    }
    let n = d.usize()?;
    let mut last_write_delay = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        last_write_delay.push(d.item()?);
    }
    let imax_smooth = d.f64()?;
    Ok(PlannerState {
        history,
        last_preload,
        last_write_delay,
        imax_smooth,
    })
}

fn enc_triggers(e: &mut Enc, a: &ArmedTriggersState) {
    e.tok("triggers");
    e.tok(if a.armed { "armed" } else { "disarmed" });
    e.micros(a.last_plan_at);
    e.micros(a.guard);
    let t = &a.triggers;
    e.micros(t.break_even);
    e.micros(t.period_start);
    e.u64(t.hot_last_io.len() as u64);
    for &(enc, ts) in &t.hot_last_io {
        e.u64(enc.0 as u64);
        e.micros(ts);
    }
    e.u64(t.cold_spin_ups.len() as u64);
    for &(enc, c) in &t.cold_spin_ups {
        e.u64(enc.0 as u64);
        e.u64(c);
    }
    e.u64(t.recent_wakes.len() as u64);
    for &(ts, enc) in &t.recent_wakes {
        e.micros(ts);
        e.u64(enc.0 as u64);
    }
    e.u64(t.cold_count as u64);
}

fn dec_triggers(d: &mut Dec) -> DecResult<ArmedTriggersState> {
    d.expect("triggers")?;
    let armed = match d.tok()? {
        "armed" => true,
        "disarmed" => false,
        t => return Err(bad(format!("bad arming state `{t}`"))),
    };
    let last_plan_at = d.micros()?;
    let guard = d.micros()?;
    let break_even = d.micros()?;
    let period_start = d.micros()?;
    let n = d.usize()?;
    let mut hot_last_io = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        hot_last_io.push((d.enclosure()?, d.micros()?));
    }
    let n = d.usize()?;
    let mut cold_spin_ups = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        cold_spin_ups.push((d.enclosure()?, d.u64()?));
    }
    let n = d.usize()?;
    let mut recent_wakes = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        recent_wakes.push((d.micros()?, d.enclosure()?));
    }
    let cold_count = d.usize()?;
    Ok(ArmedTriggersState {
        triggers: TriggersState {
            break_even,
            period_start,
            hot_last_io,
            cold_spin_ups,
            recent_wakes,
            cold_count,
        },
        armed,
        last_plan_at,
        guard,
    })
}

fn enc_item(e: &mut Enc, it: &ItemCheckpoint) {
    e.u64(it.id.0 as u64);
    let b = &it.builder;
    e.u64(b.item.0 as u64);
    e.micros(b.start);
    e.micros(b.break_even);
    e.u64(b.long_intervals.len() as u64);
    for &s in &b.long_intervals {
        e.span(s);
    }
    e.u64(b.sequences.len() as u64);
    for q in &b.sequences {
        e.seq(q);
    }
    match &b.cur {
        None => e.tok("-"),
        Some(q) => {
            e.tok("+");
            e.seq(q);
        }
    }
    e.micros(b.last_ts);
    e.u64(b.reads);
    e.u64(b.writes);
    e.u64(b.bytes_read);
    e.u64(b.bytes_written);
    e.u64(it.buckets.len() as u64);
    for &c in &it.buckets {
        e.u64(c as u64);
    }
    e.micros(it.last_ts);
    e.u64(it.count_at_last_ts as u64);
}

fn dec_item(d: &mut Dec) -> DecResult<ItemCheckpoint> {
    let id = d.item()?;
    let item = d.item()?;
    let start = d.micros()?;
    let break_even = d.micros()?;
    let n = d.usize()?;
    let mut long_intervals = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        long_intervals.push(d.span()?);
    }
    let n = d.usize()?;
    let mut sequences = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        sequences.push(d.seq()?);
    }
    let cur = match d.tok()? {
        "-" => None,
        "+" => Some(d.seq()?),
        t => return Err(bad(format!("bad open-sequence marker `{t}`"))),
    };
    let builder = IntervalBuilderState {
        item,
        start,
        break_even,
        long_intervals,
        sequences,
        cur,
        last_ts: d.micros()?,
        reads: d.u64()?,
        writes: d.u64()?,
        bytes_read: d.u64()?,
        bytes_written: d.u64()?,
    };
    let n = d.usize()?;
    let mut buckets = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        buckets.push(d.u32()?);
    }
    let last_ts = d.micros()?;
    let count_at_last_ts = d.u32()?;
    Ok(ItemCheckpoint {
        id,
        builder,
        buckets,
        last_ts,
        count_at_last_ts,
    })
}

/// Serializes a checkpoint to the `ees.checkpoint.v1` token stream.
pub fn encode_checkpoint(cp: &ControllerCheckpoint) -> String {
    let mut e = Enc::new();
    e.tok(CHECKPOINT_VERSION);
    e.tok("watermark");
    e.u64(cp.events);
    e.micros(cp.last_ts);
    e.tok("placement");
    e.u64(cp.placement.len() as u64);
    for &(id, enc, size) in &cp.placement {
        e.u64(id.0 as u64);
        e.u64(enc.0 as u64);
        e.u64(size);
    }
    e.tok("sequential");
    e.u64(cp.sequential.len() as u64);
    for &id in &cp.sequential {
        e.u64(id.0 as u64);
    }
    let s = &cp.state;
    e.tok("controller");
    e.micros(s.break_even);
    e.micros(s.period_start);
    e.micros(s.period_len);
    e.u64(s.periods);
    e.u64(s.trigger_cuts);
    enc_planner(&mut e, &s.planner);
    enc_triggers(&mut e, &s.triggers);
    e.tok("items");
    e.u64(s.items.len() as u64);
    for it in &s.items {
        enc_item(&mut e, it);
    }
    // Optional section: absent when no names were ever interned, which
    // also keeps checkpoints from numeric-id-only runs byte-identical
    // to what they were before the section existed.
    if !cp.names.is_empty() {
        e.tok("interner");
        e.u64(cp.names.len() as u64);
        for name in &cp.names {
            e.name(name);
        }
    }
    e.tok("end");
    e.out.push('\n');
    e.out
}

/// Parses an `ees.checkpoint.v1` token stream.
pub fn decode_checkpoint(text: &str) -> Result<ControllerCheckpoint, OnlineError> {
    let mut d = Dec::new(text);
    let version = d.tok()?;
    if version != CHECKPOINT_VERSION {
        return Err(bad(format!(
            "unsupported checkpoint version `{version}` (expected `{CHECKPOINT_VERSION}`)"
        )));
    }
    d.expect("watermark")?;
    let events = d.u64()?;
    let last_ts = d.micros()?;
    d.expect("placement")?;
    let n = d.usize()?;
    let mut placement = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        placement.push((d.item()?, d.enclosure()?, d.u64()?));
    }
    d.expect("sequential")?;
    let n = d.usize()?;
    let mut sequential = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        sequential.push(d.item()?);
    }
    d.expect("controller")?;
    let break_even = d.micros()?;
    let period_start = d.micros()?;
    let period_len = d.micros()?;
    let periods = d.u64()?;
    let trigger_cuts = d.u64()?;
    let planner = dec_planner(&mut d)?;
    let triggers = dec_triggers(&mut d)?;
    d.expect("items")?;
    let n = d.usize()?;
    let mut items = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        items.push(dec_item(&mut d)?);
    }
    let names = match d.tok()? {
        "end" => Vec::new(),
        "interner" => {
            let n = d.usize()?;
            let mut names = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                names.push(d.name()?);
            }
            d.expect("end")?;
            names
        }
        t => return Err(bad(format!("expected `interner` or `end`, found `{t}`"))),
    };
    if let Some(extra) = d.peek() {
        return Err(bad(format!("trailing data after `end`: `{extra}`")));
    }
    Ok(ControllerCheckpoint {
        events,
        last_ts,
        placement,
        sequential,
        names,
        state: ControllerState {
            break_even,
            period_start,
            period_len,
            periods,
            trigger_cuts,
            planner,
            triggers,
            items,
        },
    })
}

/// Writes a checkpoint atomically: encode to `<path>.tmp`, then rename
/// over `path`. A crash mid-write leaves the previous checkpoint intact.
pub fn write_checkpoint_file(path: &Path, cp: &ControllerCheckpoint) -> Result<(), OnlineError> {
    let text = encode_checkpoint(cp);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text.as_bytes())?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and decodes a checkpoint file.
pub fn read_checkpoint_file(path: &Path) -> Result<ControllerCheckpoint, OnlineError> {
    let text = std::fs::read_to_string(path)?;
    decode_checkpoint(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ControllerCheckpoint {
        ControllerCheckpoint {
            events: 1234,
            last_ts: Micros::from_secs(99),
            placement: vec![
                (DataItemId(1), EnclosureId(0), 4096),
                (DataItemId(7), EnclosureId(3), 1 << 30),
            ],
            sequential: vec![DataItemId(7)],
            names: vec!["db/users.ibd".into(), "logs/app log".into(), String::new()],
            state: ControllerState {
                break_even: Micros::from_secs(52),
                period_start: Micros::from_secs(60),
                period_len: Micros::from_secs(600),
                periods: 3,
                trigger_cuts: 1,
                planner: PlannerState {
                    history: MonitorHistoryState {
                        periods: vec![PeriodRecord {
                            period: Span {
                                start: Micros::ZERO,
                                end: Micros::from_secs(60),
                            },
                            mix: PatternMix {
                                p0: 1,
                                p1: 2,
                                p2: 0,
                                p3: 3,
                            },
                            changed: 2,
                        }],
                        last_pattern: vec![
                            (DataItemId(1), LogicalIoPattern::P1, 0),
                            (DataItemId(7), LogicalIoPattern::P3, 0),
                        ],
                        retention: 8,
                        period_cap: ees_core::DEFAULT_PERIOD_CAP,
                        dropped: 0,
                        dropped_total: 0,
                        dropped_changed: 0,
                    },
                    last_preload: vec![(DataItemId(1), 4096)],
                    last_write_delay: vec![DataItemId(2)],
                    imax_smooth: 123.456789,
                },
                triggers: ArmedTriggersState {
                    triggers: TriggersState {
                        break_even: Micros::from_secs(52),
                        period_start: Micros::from_secs(60),
                        hot_last_io: vec![(EnclosureId(0), Micros::from_secs(61))],
                        cold_spin_ups: vec![(EnclosureId(3), 2)],
                        recent_wakes: vec![(Micros::from_secs(62), EnclosureId(3))],
                        cold_count: 5,
                    },
                    armed: true,
                    last_plan_at: Micros::from_secs(60),
                    guard: Micros::from_secs(60),
                },
                items: vec![ItemCheckpoint {
                    id: DataItemId(1),
                    builder: IntervalBuilderState {
                        item: DataItemId(1),
                        start: Micros::from_secs(60),
                        break_even: Micros::from_secs(52),
                        long_intervals: vec![Span {
                            start: Micros::from_secs(61),
                            end: Micros::from_secs(120),
                        }],
                        sequences: vec![IoSequence {
                            start: Micros::from_secs(60),
                            end: Micros::from_secs(61),
                            reads: 4,
                            writes: 1,
                        }],
                        cur: Some(IoSequence {
                            start: Micros::from_secs(120),
                            end: Micros::from_secs(121),
                            reads: 1,
                            writes: 0,
                        }),
                        last_ts: Micros::from_secs(121),
                        reads: 5,
                        writes: 1,
                        bytes_read: 20480,
                        bytes_written: 4096,
                    },
                    buckets: vec![0, 3, 1],
                    last_ts: Micros::from_secs(121),
                    count_at_last_ts: 1,
                }],
            },
        }
    }

    /// The encoder's bytes for `sample()`, pinned: tokens, their order,
    /// the 100-column soft wrap and the float bit patterns.
    #[test]
    fn encoding_matches_the_golden_bytes() {
        let golden = concat!(
            "ees.checkpoint.v1 watermark 1234 99000000 placement 2 1 0 4096 7 3 1073741824 sequential 1 7\n",
            "controller 52000000 60000000 600000000 3 1 planner history 1 0 60000000 1 2 0 3 2 2 1 P1 0 7 P3 0 8\n",
            "1 1 4096 1 2 405edd3c07ee0b0b triggers armed 60000000 60000000 52000000 60000000 1 0 61000000 1 3 2\n",
            "1 62000000 3 5 items 1 1 1 60000000 52000000 1 61000000 120000000 1 60000000 61000000 4 1 +\n",
            "120000000 121000000 1 0 121000000 5 1 20480 4096 3 0 3 1 121000000 1 interner 3\n",
            "n64622f75736572732e696264 n6c6f67732f617070206c6f67 n end\n",
        );
        assert_eq!(encode_checkpoint(&sample()), golden);
    }

    #[test]
    fn number_tokens_match_std_formatting() {
        for v in [0, 9, 10, 1234, u64::MAX - 1, u64::MAX] {
            let mut e = Enc::new();
            e.u64(v);
            assert_eq!(e.out, v.to_string());
        }
        for v in [0.0, -0.0, 123.456789, f64::MAX, f64::NAN] {
            let mut e = Enc::new();
            e.f64(v);
            assert_eq!(e.out, format!("{:016x}", v.to_bits()));
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let cp = sample();
        let text = encode_checkpoint(&cp);
        assert!(text.starts_with(CHECKPOINT_VERSION));
        let back = decode_checkpoint(&text).unwrap();
        assert_eq!(cp, back);
    }

    #[test]
    fn float_bits_roundtrip_exactly() {
        let mut cp = sample();
        cp.state.planner.imax_smooth = 0.1 + 0.2; // not representable tidily
        let back = decode_checkpoint(&encode_checkpoint(&cp)).unwrap();
        assert_eq!(
            back.state.planner.imax_smooth.to_bits(),
            cp.state.planner.imax_smooth.to_bits()
        );
    }

    /// `sample()` encoded, with the token `offset` places past the first
    /// `anchor` keyword replaced by `value`.
    fn with_token(anchor: &str, offset: usize, value: &str) -> String {
        let text = encode_checkpoint(&sample());
        let mut toks: Vec<&str> = text.split_whitespace().collect();
        let at = toks.iter().position(|&t| t == anchor).unwrap() + offset;
        toks[at] = value;
        toks.join(" ")
    }

    #[test]
    fn out_of_range_ids_are_rejected_not_truncated() {
        // Item ids are u32 and enclosure ids u16: the largest value of
        // each decodes, and one past it is an error, never a wrap (id
        // 2^32 must not alias item 0).
        for (anchor, offset, max) in [
            ("placement", 2, u64::from(u32::MAX)), // placed item
            ("placement", 3, u64::from(u16::MAX)), // its enclosure
            ("sequential", 2, u64::from(u32::MAX)),
            ("triggers", 7, u64::from(u16::MAX)), // a hot enclosure
            ("items", 2, u64::from(u32::MAX)),    // a classified item
        ] {
            let site = format!("{anchor} + {offset}");
            assert!(
                decode_checkpoint(&with_token(anchor, offset, &max.to_string())).is_ok(),
                "{site}"
            );
            let over = (max + 1).to_string();
            let err = decode_checkpoint(&with_token(anchor, offset, &over)).unwrap_err();
            assert!(matches!(err, OnlineError::Checkpoint(_)), "{site}: {err}");
            assert!(
                err.to_string().contains(&format!("`{over}` out of range")),
                "{site}: {err}"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let text = encode_checkpoint(&sample());
        // Chop anywhere: decode must error, never panic or mis-read.
        for cut in (0..text.len().saturating_sub(1)).step_by(97) {
            assert!(
                decode_checkpoint(&text[..cut]).is_err(),
                "truncation at {cut} went undetected"
            );
        }
    }

    #[test]
    fn ring_section_is_optional_and_roundtrips() {
        // Default-cap, nothing-pruned histories omit the section, so
        // checkpoints from such runs are byte-identical to the format
        // before the ring extension existed.
        let cp = sample();
        let text = encode_checkpoint(&cp);
        assert!(!text.contains("ring"));
        // A pruned history carries its ring state through exactly.
        let mut pruned = cp.clone();
        pruned.state.planner.history.period_cap = 128;
        pruned.state.planner.history.dropped = 42;
        pruned.state.planner.history.dropped_total = 1000;
        pruned.state.planner.history.dropped_changed = 7;
        let text = encode_checkpoint(&pruned);
        assert!(text.contains("ring"));
        assert_eq!(decode_checkpoint(&text).unwrap(), pruned);
    }

    #[test]
    fn interner_section_is_optional() {
        // A checkpoint from a numeric-id-only run omits the section;
        // decode yields an empty name table.
        let mut cp = sample();
        cp.names.clear();
        let text = encode_checkpoint(&cp);
        assert!(!text.contains("interner"));
        assert_eq!(decode_checkpoint(&text).unwrap(), cp);
    }

    #[test]
    fn names_survive_whitespace_and_unicode() {
        let mut cp = sample();
        cp.names = vec![
            "a b\tc\nd".into(),
            "naïve/ürlaub-файл".into(),
            String::new(),
            "n".into(),
        ];
        let back = decode_checkpoint(&encode_checkpoint(&cp)).unwrap();
        assert_eq!(back.names, cp.names);
    }

    #[test]
    fn bad_name_token_is_rejected() {
        let mut cp = sample();
        cp.names.clear();
        let text = encode_checkpoint(&cp);
        let body = text.trim_end().strip_suffix("end").unwrap();
        for bad in [
            "interner 1 6162 end",
            "interner 1 nzz end",
            "interner 1 nf end",
        ] {
            let t = format!("{body}{bad}");
            assert!(decode_checkpoint(&t).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = encode_checkpoint(&sample()).replace("ees.checkpoint.v1", "ees.checkpoint.v9");
        let err = decode_checkpoint(&text).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut text = encode_checkpoint(&sample());
        text.push_str(" 42");
        assert!(decode_checkpoint(&text).is_err());
    }

    #[test]
    fn atomic_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ees-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("controller.ckpt");
        let cp = sample();
        write_checkpoint_file(&path, &cp).unwrap();
        let back = read_checkpoint_file(&path).unwrap();
        assert_eq!(cp, back);
        // Overwrite goes through the same tmp+rename path.
        write_checkpoint_file(&path, &cp).unwrap();
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
