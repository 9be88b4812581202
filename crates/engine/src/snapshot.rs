//! Versioned, self-describing snapshot serialisation for checkpoints.
//!
//! Every mergeable accumulator in the workspace can freeze its state to a
//! byte-stable text form and thaw it back **bit-exactly** — the property
//! the checkpoint/resume path needs so a resumed run's output is
//! byte-identical to a cold run. The format is deliberately boring:
//!
//! * Line-oriented text. One `key value...` field per line; nested values
//!   are framed by `!begin <Kind> v<version>` / `!end` markers, so any
//!   snapshot is self-describing and greppable in a hex-free editor.
//! * Every `f64` is written as the 16-hex-digit form of its IEEE bits
//!   ([`SnapshotWriter::f64`]). Decimal formatting is lossy for some
//!   doubles; bits never are. Integer state (`u64`/`i128`/...) is decimal.
//! * Strings are written last on their line with `\\`, `\n`, `\r`
//!   escaped, so embedded whitespace survives.
//! * Each type carries a `KIND` tag and a `VERSION` number. Readers
//!   **reject** any version they were not built for — the compatibility
//!   rule is strict equality, never best-effort parsing of foreign state
//!   (DESIGN.md §10).
//!
//! Checksumming ([`fnv1a64`]) and atomic file placement live one level up
//! in [`crate::checkpoint`]; this module is pure in-memory encode/decode
//! and therefore never touches the filesystem.

use std::fmt;

use crate::ecdf::EcdfSketch;
use bb_trace::{Log2Histogram, Registry};

/// FNV-1a 64-bit hash — the checkpoint checksum primitive.
///
/// Not cryptographic; it defends against torn writes, truncation and
/// bit rot, not against an adversary (see DESIGN.md §10).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Error produced when decoding a snapshot: the 1-based line where
/// decoding stopped plus a human-readable reason. Decoding never panics —
/// corrupt or crafted input must surface as a value of this type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError {
    /// 1-based line number where decoding failed (0 = end of input).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// Append-only encoder for the snapshot text form.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    out: String,
}

impl SnapshotWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a `!begin <kind> v<version>` frame.
    pub fn begin(&mut self, kind: &str, version: u32) {
        self.out.push_str("!begin ");
        self.out.push_str(kind);
        self.out.push_str(" v");
        self.out.push_str(&version.to_string());
        self.out.push('\n');
    }

    /// Close the innermost frame.
    pub fn end(&mut self) {
        self.out.push_str("!end\n");
    }

    /// Write `key <decimal>` for any unsigned count.
    pub fn u64(&mut self, key: &str, v: u64) {
        self.line(key, &v.to_string());
    }

    /// Write `key <decimal>` for a 128-bit signed sum.
    pub fn i128(&mut self, key: &str, v: i128) {
        self.line(key, &v.to_string());
    }

    /// Write `key <decimal>` for a 128-bit unsigned sum.
    pub fn u128(&mut self, key: &str, v: u128) {
        self.line(key, &v.to_string());
    }

    /// Write `key <16 hex digits>` — the IEEE-754 bits of `v`, which
    /// round-trip every double (including NaN payloads) exactly.
    pub fn f64(&mut self, key: &str, v: f64) {
        self.line(key, &format!("{:016x}", v.to_bits()));
    }

    /// Write `key <escaped string>`; the string is the rest of the line.
    pub fn str(&mut self, key: &str, v: &str) {
        self.line(key, &escape(v));
    }

    /// Write a pre-formatted `key value...` line. `rest` must not contain
    /// newlines (escape strings first).
    pub fn line(&mut self, key: &str, rest: &str) {
        debug_assert!(!key.contains(char::is_whitespace), "key {key:?}");
        debug_assert!(!rest.contains('\n'), "unescaped newline in {rest:?}");
        self.out.push_str(key);
        self.out.push(' ');
        self.out.push_str(rest);
        self.out.push('\n');
    }

    /// The accumulated snapshot text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Escape a string for single-line storage (`\\`, `\n`, `\r`).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]. Returns `None` on a dangling backslash or an
/// unknown escape — corrupt input, never a panic.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// Line-cursor decoder for the snapshot text form. Every accessor
/// verifies the expected key and returns a [`SnapshotError`] on any
/// mismatch, so a truncated or tampered snapshot is always *detected*,
/// never silently misread.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Decode from the full snapshot text.
    pub fn new(text: &'a str) -> Self {
        SnapshotReader {
            lines: text.lines().collect(),
            pos: 0,
        }
    }

    /// Build an error at the current position.
    pub fn invalid(&self, message: impl Into<String>) -> SnapshotError {
        SnapshotError {
            line: self.pos.min(self.lines.len()),
            message: message.into(),
        }
    }

    fn next_line(&mut self) -> Result<&'a str, SnapshotError> {
        let line = self.lines.get(self.pos).copied().ok_or(SnapshotError {
            line: 0,
            message: "unexpected end of snapshot".into(),
        })?;
        self.pos += 1;
        Ok(line)
    }

    /// Consume `!begin <kind> v<version>`, returning the stored version.
    pub fn begin(&mut self, kind: &str) -> Result<u32, SnapshotError> {
        let line = self.next_line()?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some("!begin") {
            return Err(self.invalid(format!("expected !begin {kind}, got {line:?}")));
        }
        if toks.next() != Some(kind) {
            return Err(self.invalid(format!("expected kind {kind}, got {line:?}")));
        }
        let version = toks
            .next()
            .and_then(|v| v.strip_prefix('v'))
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| self.invalid(format!("malformed version in {line:?}")))?;
        Ok(version)
    }

    /// Consume the `!end` closing the current frame.
    pub fn end(&mut self) -> Result<(), SnapshotError> {
        let line = self.next_line()?;
        if line.trim() != "!end" {
            return Err(self.invalid(format!("expected !end, got {line:?}")));
        }
        Ok(())
    }

    /// Consume a `key value...` line, returning the rest of the line.
    pub fn take(&mut self, key: &str) -> Result<&'a str, SnapshotError> {
        let line = self.next_line()?;
        match line.strip_prefix(key) {
            Some(rest) if rest.starts_with(' ') => Ok(&rest[1..]),
            Some("") => Ok(""),
            _ => Err(self.invalid(format!("expected key {key:?}, got {line:?}"))),
        }
    }

    /// Consume `key <u64>`.
    pub fn take_u64(&mut self, key: &str) -> Result<u64, SnapshotError> {
        let rest = self.take(key)?;
        rest.trim()
            .parse::<u64>()
            .map_err(|_| self.invalid(format!("{key}: not a u64: {rest:?}")))
    }

    /// Consume `key <i128>`.
    pub fn take_i128(&mut self, key: &str) -> Result<i128, SnapshotError> {
        let rest = self.take(key)?;
        rest.trim()
            .parse::<i128>()
            .map_err(|_| self.invalid(format!("{key}: not an i128: {rest:?}")))
    }

    /// Consume `key <u128>`.
    pub fn take_u128(&mut self, key: &str) -> Result<u128, SnapshotError> {
        let rest = self.take(key)?;
        rest.trim()
            .parse::<u128>()
            .map_err(|_| self.invalid(format!("{key}: not a u128: {rest:?}")))
    }

    /// Consume `key <16 hex digits>` and rebuild the double from its bits.
    pub fn take_f64(&mut self, key: &str) -> Result<f64, SnapshotError> {
        let rest = self.take(key)?;
        parse_f64_bits(rest.trim())
            .ok_or_else(|| self.invalid(format!("{key}: bad f64 bits: {rest:?}")))
    }

    /// Consume `key <escaped string>` and unescape it.
    pub fn take_str(&mut self, key: &str) -> Result<String, SnapshotError> {
        let rest = self.take(key)?;
        unescape(rest).ok_or_else(|| self.invalid(format!("{key}: bad escape in {rest:?}")))
    }

    /// Require the cursor to have consumed every line.
    pub fn expect_eof(&self) -> Result<(), SnapshotError> {
        if self.pos == self.lines.len() {
            Ok(())
        } else {
            Err(SnapshotError {
                line: self.pos + 1,
                message: format!(
                    "{} trailing line(s) after snapshot",
                    self.lines.len() - self.pos
                ),
            })
        }
    }
}

/// Parse a 16-hex-digit f64 bit pattern.
pub fn parse_f64_bits(token: &str) -> Option<f64> {
    if token.len() != 16 {
        return None;
    }
    u64::from_str_radix(token, 16).ok().map(f64::from_bits)
}

/// Bit-exact freeze/thaw for checkpointable state.
///
/// Implementations must guarantee the roundtrip law pinned by the
/// proptests in `crates/engine/tests/snapshot_roundtrip.rs`:
/// `read(write(x)) == x` *bitwise* — equal enough that merging restored
/// partials yields byte-identical downstream output.
pub trait Snapshot: Sized {
    /// Self-describing type tag written into the frame header.
    const KIND: &'static str;
    /// Format version; readers reject any other value.
    const VERSION: u32 = 1;

    /// Encode the state (fields only; framing is provided).
    fn write_body(&self, w: &mut SnapshotWriter);

    /// Decode the state (fields only; framing already consumed).
    fn read_body(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;

    /// Encode with `!begin`/`!end` framing.
    fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.begin(Self::KIND, Self::VERSION);
        self.write_body(w);
        w.end();
    }

    /// Decode a framed snapshot, rejecting version mismatches.
    fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let version = r.begin(Self::KIND)?;
        if version != Self::VERSION {
            return Err(r.invalid(format!(
                "{}: unsupported version v{version} (this build reads v{})",
                Self::KIND,
                Self::VERSION
            )));
        }
        let value = Self::read_body(r)?;
        r.end()?;
        Ok(value)
    }

    /// Convenience: full snapshot as a `String`.
    fn to_snapshot_string(&self) -> String {
        let mut w = SnapshotWriter::new();
        self.write_snapshot(&mut w);
        w.finish()
    }

    /// Convenience: decode a full snapshot string (must consume it all).
    fn from_snapshot_str(text: &str) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(text);
        let value = Self::read_snapshot(&mut r)?;
        r.expect_eof()?;
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// Generic containers.
// ---------------------------------------------------------------------------

impl<T: Snapshot> Snapshot for Vec<T> {
    const KIND: &'static str = "Vec";

    fn write_body(&self, w: &mut SnapshotWriter) {
        w.u64("len", self.len() as u64);
        for item in self {
            item.write_snapshot(w);
        }
    }

    fn read_body(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_u64("len")?;
        let len = usize::try_from(len).map_err(|_| r.invalid("len overflows usize"))?;
        // Cap the pre-allocation so a corrupt length can't balloon memory;
        // a wrong length still fails fast at the next frame marker.
        let mut items = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            items.push(T::read_snapshot(r)?);
        }
        Ok(items)
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    const KIND: &'static str = "Option";

    fn write_body(&self, w: &mut SnapshotWriter) {
        match self {
            Some(value) => {
                w.u64("some", 1);
                value.write_snapshot(w);
            }
            None => w.u64("some", 0),
        }
    }

    fn read_body(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u64("some")? {
            0 => Ok(None),
            1 => Ok(Some(T::read_snapshot(r)?)),
            other => Err(r.invalid(format!("Option tag must be 0 or 1, got {other}"))),
        }
    }
}

macro_rules! impl_snapshot_tuple {
    ($kind:literal, $(($name:ident, $idx:tt)),+) => {
        impl<$($name: Snapshot),+> Snapshot for ($($name,)+) {
            const KIND: &'static str = $kind;

            fn write_body(&self, w: &mut SnapshotWriter) {
                $( self.$idx.write_snapshot(w); )+
            }

            fn read_body(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($( $name::read_snapshot(r)?, )+))
            }
        }
    };
}

impl_snapshot_tuple!("Tuple2", (A, 0), (B, 1));
impl_snapshot_tuple!("Tuple3", (A, 0), (B, 1), (C, 2));
impl_snapshot_tuple!("Tuple4", (A, 0), (B, 1), (C, 2), (D, 3));

// ---------------------------------------------------------------------------
// bb-trace types (foreign types, local trait).
// ---------------------------------------------------------------------------

impl Snapshot for Log2Histogram {
    const KIND: &'static str = "Log2Histogram";

    fn write_body(&self, w: &mut SnapshotWriter) {
        w.u64("nonpositive", self.nonpositive());
        w.u64("buckets", self.buckets().count() as u64);
        for (bucket, count) in self.buckets() {
            w.line("-", &format!("{bucket} {count}"));
        }
    }

    fn read_body(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let nonpositive = r.take_u64("nonpositive")?;
        let len = r.take_u64("buckets")?;
        let mut buckets = Vec::new();
        for _ in 0..len {
            let rest = r.take("-")?;
            let mut toks = rest.split_whitespace();
            let bucket = toks
                .next()
                .and_then(|t| t.parse::<i32>().ok())
                .ok_or_else(|| r.invalid(format!("bad histogram bucket in {rest:?}")))?;
            let count = toks
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| r.invalid(format!("bad histogram count in {rest:?}")))?;
            buckets.push((bucket, count));
        }
        Ok(Log2Histogram::from_parts(nonpositive, buckets))
    }
}

impl Snapshot for Registry {
    const KIND: &'static str = "Registry";

    fn write_body(&self, w: &mut SnapshotWriter) {
        w.u64("counters", self.counters().count() as u64);
        for (name, value) in self.counters() {
            w.line("-", &format!("{value} {}", escape(name)));
        }
        w.u64("hists", self.histograms().count() as u64);
        for (name, hist) in self.histograms() {
            w.str("-", name);
            hist.write_snapshot(w);
        }
    }

    fn read_body(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut registry = Registry::new();
        let n_counters = r.take_u64("counters")?;
        for _ in 0..n_counters {
            let rest = r.take("-")?;
            let (value_tok, name_tok) = rest
                .split_once(' ')
                .ok_or_else(|| r.invalid(format!("bad counter line {rest:?}")))?;
            let value = value_tok
                .parse::<u64>()
                .map_err(|_| r.invalid(format!("bad counter value in {rest:?}")))?;
            let name = unescape(name_tok)
                .ok_or_else(|| r.invalid(format!("bad counter name in {rest:?}")))?;
            registry.add(bb_trace::intern(&name), value);
        }
        let n_hists = r.take_u64("hists")?;
        for _ in 0..n_hists {
            let name = r.take_str("-")?;
            let hist = Log2Histogram::read_snapshot(r)?;
            registry.merge_hist(bb_trace::intern(&name), hist);
        }
        Ok(registry)
    }
}

// ---------------------------------------------------------------------------
// EcdfSketch delegates to its inner QuantileSketch (whose impl lives next
// to its private fields in `crate::quantile`).
// ---------------------------------------------------------------------------

impl Snapshot for EcdfSketch {
    const KIND: &'static str = "EcdfSketch";

    fn write_body(&self, w: &mut SnapshotWriter) {
        self.inner().write_snapshot(w);
    }

    fn read_body(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(EcdfSketch::from_inner(
            crate::QuantileSketch::read_snapshot(r)?,
        ))
    }
}

/// Freeze `value` and thaw it again — the roundtrip the proptests and
/// the checkpoint loader both exercise. Provided as a helper so tests
/// across crates state the law identically.
pub fn roundtrip<T: Snapshot>(value: &T) -> Result<T, SnapshotError> {
    T::from_snapshot_str(&value.to_snapshot_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn escape_roundtrips_awkward_strings() {
        for s in ["", "plain", "a b c", "tr\\ail\\\\", "nl\nand\rcr", "end\\"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s), "{s:?}");
        }
        assert_eq!(unescape("dangling\\"), None);
        assert_eq!(unescape("bad\\q"), None);
    }

    #[test]
    fn f64_bits_roundtrip_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1 + 0.2, // classic decimal-lossy value
        ] {
            let mut w = SnapshotWriter::new();
            w.f64("x", v);
            let text = w.finish();
            let mut r = SnapshotReader::new(&text);
            let back = r.take_f64("x").unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        assert_eq!(parse_f64_bits("zz"), None);
        assert_eq!(parse_f64_bits("00"), None);
    }

    #[test]
    fn version_mismatch_is_rejected_not_misread() {
        let hist = Log2Histogram::new();
        let text = hist.to_snapshot_string().replace("v1", "v9");
        let err = Log2Histogram::from_snapshot_str(&text).unwrap_err();
        assert!(err.message.contains("unsupported version"), "{err}");
    }

    #[test]
    fn truncated_snapshot_is_an_error() {
        let mut h = Log2Histogram::new();
        h.push(4.0, 1.0);
        let text = h.to_snapshot_string();
        let truncated = &text[..text.len() / 2];
        assert!(Log2Histogram::from_snapshot_str(truncated).is_err());
    }

    #[test]
    fn registry_roundtrips() {
        let mut reg = Registry::new();
        reg.add("alpha", 3);
        reg.observe("gaps", 7.0, 1.0);
        let back = Registry::from_snapshot_str(&reg.to_snapshot_string()).unwrap();
        assert_eq!(back, reg);
        assert_eq!(back.to_json(), reg.to_json());
    }
}
