//! Portable wire form for sweep accumulators.
//!
//! Distributed sweeps ship partial reductions between processes and
//! hosts, and the whole point of the deterministic sweep engine is that
//! the reduced statistics are **bit-identical** wherever the cells ran.
//! A decimal rendering of an `f64` is not good enough for that contract
//! — a value that round-trips through shortest-decimal text can park on
//! a different bit pattern on the way — so accumulators cross the wire
//! as a [`Wire`] tree in which:
//!
//! * every `f64` is carried as the **hex bit pattern** of
//!   [`f64::to_bits`] (`"f64:3fe0000000000000"`), so the receiving host
//!   reconstructs the exact bits, NaN payloads and signed zeros
//!   included;
//! * every `u64` is carried as a decimal string
//!   (`"u64:18446744073709551615"`), because the JSON layer carries
//!   plain numbers as `f64` and would round counters above `2^53`;
//! * lists and records are ordinary JSON arrays/objects, so the
//!   encoding stays self-describing and debuggable with standard tools.
//!
//! The [`WireForm`] trait is the companion of
//! [`SweepReduce`](crate::sweep::SweepReduce): an accumulator that
//! implements both can be computed on any worker, shipped as text, and
//! folded by the coordinator with the exact bits an in-process sweep
//! would have produced. `tests/dist_equivalence.rs` holds every
//! implementation in the workspace to the round-trip contract.
//!
//! ```
//! use divrel_numerics::descriptive::Moments;
//! use divrel_numerics::wire::WireForm;
//!
//! let mut m = Moments::new();
//! for x in [0.1, 0.25, 7.5] {
//!     m.push(x);
//! }
//! let wire = m.to_wire();
//! let text = serde_json::to_string(&wire).unwrap();
//! let back = Moments::from_wire(&serde_json::from_str(&text).unwrap()).unwrap();
//! // Bit-identical, not merely close.
//! assert_eq!(back.mean().unwrap().to_bits(), m.mean().unwrap().to_bits());
//! # assert_eq!(back, m);
//! ```

use crate::descriptive::Moments;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// A self-describing wire value: the transport form of a sweep
/// accumulator.
#[derive(Debug, Clone, PartialEq)]
pub enum Wire {
    /// An exact 64-bit counter (decimal-string encoded).
    U64(u64),
    /// An `f64` carried by bit pattern (hex-string encoded).
    F64(f64),
    /// A plain string (tags, labels).
    Text(String),
    /// An ordered list.
    List(Vec<Wire>),
    /// Named fields, order-preserving.
    Record(Vec<(String, Wire)>),
}

impl Wire {
    /// Builds a record from `(name, value)` pairs.
    #[must_use]
    pub fn record<const N: usize>(fields: [(&str, Wire); N]) -> Wire {
        Wire::Record(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks a record field up by name.
    ///
    /// # Errors
    ///
    /// [`WireError`] if `self` is not a record or lacks the field.
    pub fn field(&self, name: &str) -> Result<&Wire, WireError> {
        match self {
            Wire::Record(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| WireError(format!("record has no field {name:?}"))),
            other => Err(WireError(format!(
                "expected a record with field {name:?}, got {}",
                other.kind()
            ))),
        }
    }

    /// The counter value, if this is a [`Wire::U64`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on any other variant.
    pub fn as_u64(&self) -> Result<u64, WireError> {
        match self {
            Wire::U64(n) => Ok(*n),
            other => Err(WireError(format!("expected u64, got {}", other.kind()))),
        }
    }

    /// The float value, if this is a [`Wire::F64`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on any other variant.
    pub fn as_f64(&self) -> Result<f64, WireError> {
        match self {
            Wire::F64(x) => Ok(*x),
            other => Err(WireError(format!("expected f64, got {}", other.kind()))),
        }
    }

    /// The elements, if this is a [`Wire::List`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on any other variant.
    pub fn as_list(&self) -> Result<&[Wire], WireError> {
        match self {
            Wire::List(items) => Ok(items),
            other => Err(WireError(format!("expected list, got {}", other.kind()))),
        }
    }

    /// The string, if this is a [`Wire::Text`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on any other variant.
    pub fn as_text(&self) -> Result<&str, WireError> {
        match self {
            Wire::Text(s) => Ok(s),
            other => Err(WireError(format!("expected text, got {}", other.kind()))),
        }
    }

    /// The fields of a [`Wire::Record`], in stored order.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any other variant.
    pub fn fields(&self) -> Result<&[(String, Wire)], WireError> {
        match self {
            Wire::Record(fields) => Ok(fields),
            other => Err(WireError(format!("expected record, got {}", other.kind()))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Wire::U64(_) => "u64",
            Wire::F64(_) => "f64",
            Wire::Text(_) => "text",
            Wire::List(_) => "list",
            Wire::Record(_) => "record",
        }
    }
}

/// Decode failure: the wire tree does not have the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Scalar string encodings: the `u64:`/`f64:`/`s:` prefixes make the
/// JSON rendering self-describing (a bare JSON number would round-trip
/// through `f64` and lose counter precision and float bits).
impl Serialize for Wire {
    fn to_value(&self) -> Value {
        match self {
            Wire::U64(n) => Value::Str(format!("u64:{n}")),
            Wire::F64(x) => Value::Str(format!("f64:{:016x}", x.to_bits())),
            Wire::Text(s) => Value::Str(format!("s:{s}")),
            Wire::List(items) => Value::Seq(items.iter().map(Serialize::to_value).collect()),
            Wire::Record(fields) => Value::Map(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect(),
            ),
        }
    }
}

impl Deserialize for Wire {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => {
                if let Some(digits) = s.strip_prefix("u64:") {
                    digits
                        .parse::<u64>()
                        .map(Wire::U64)
                        .map_err(|e| DeError::custom(format!("bad u64 wire scalar {s:?}: {e}")))
                } else if let Some(hex) = s.strip_prefix("f64:") {
                    u64::from_str_radix(hex, 16)
                        .map(|bits| Wire::F64(f64::from_bits(bits)))
                        .map_err(|e| DeError::custom(format!("bad f64 wire scalar {s:?}: {e}")))
                } else if let Some(text) = s.strip_prefix("s:") {
                    Ok(Wire::Text(text.to_string()))
                } else {
                    Err(DeError::custom(format!(
                        "wire scalar without type prefix: {s:?}"
                    )))
                }
            }
            Value::Seq(items) => items
                .iter()
                .map(Wire::from_value)
                .collect::<Result<_, _>>()
                .map(Wire::List),
            Value::Map(fields) => fields
                .iter()
                .map(|(k, v)| Wire::from_value(v).map(|w| (k.clone(), w)))
                .collect::<Result<_, _>>()
                .map(Wire::Record),
            other => Err(DeError::custom(format!(
                "wire values are strings/arrays/objects, got {other:?}"
            ))),
        }
    }
}

/// Maximum nesting depth [`Wire::from_bytes`] will decode. Real
/// accumulator trees are a handful of levels deep; the cap keeps a
/// corrupt or adversarial payload from recursing the stack away.
pub const BINARY_MAX_DEPTH: usize = 64;

const TAG_U64: u8 = 0x01;
const TAG_F64: u8 = 0x02;
const TAG_TEXT: u8 = 0x03;
const TAG_LIST: u8 = 0x04;
const TAG_RECORD: u8 = 0x05;

/// Appends `v` to `out` as a LEB128 varint (7 bits per byte,
/// continuation high bit). Shared with the distributed runtime's frame
/// layer, which length-prefixes binary frames the same way.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from `bytes` starting at `*pos`, advancing
/// `*pos` past it.
///
/// # Errors
///
/// [`WireError`] on truncation or a varint wider than 64 bits.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| WireError("truncated varint".into()))?;
        *pos += 1;
        let low = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && low > 1) {
            return Err(WireError("varint overflows u64".into()));
        }
        v |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

impl Wire {
    /// Encodes the tree in the compact tag-byte binary form the
    /// distributed runtime sends `Result` frames in: `u64` as a varint,
    /// `f64` as its raw little-endian bit pattern, strings and
    /// containers length-prefixed with varints. Carries the same exact
    /// bits as the JSON form — [`Wire::from_bytes`] of the result is
    /// bit-identical to `self` — just without the hex/decimal text
    /// inflation.
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        match self {
            Wire::U64(n) => {
                out.push(TAG_U64);
                write_varint(out, *n);
            }
            Wire::F64(x) => {
                out.push(TAG_F64);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Wire::Text(s) => {
                out.push(TAG_TEXT);
                write_varint(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
            Wire::List(items) => {
                out.push(TAG_LIST);
                write_varint(out, items.len() as u64);
                for item in items {
                    item.encode_binary(out);
                }
            }
            Wire::Record(fields) => {
                out.push(TAG_RECORD);
                write_varint(out, fields.len() as u64);
                for (k, v) in fields {
                    write_varint(out, k.len() as u64);
                    out.extend_from_slice(k.as_bytes());
                    v.encode_binary(out);
                }
            }
        }
    }

    /// The binary encoding as an owned buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_binary(&mut out);
        out
    }

    /// Decodes one tree from the [`Wire::encode_binary`] form,
    /// requiring that `bytes` holds exactly one tree.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an unknown tag, truncation, invalid UTF-8,
    /// nesting beyond [`BINARY_MAX_DEPTH`], or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Wire, WireError> {
        let mut pos = 0;
        let wire = Wire::decode_binary(bytes, &mut pos, 0)?;
        if pos != bytes.len() {
            return Err(WireError(format!(
                "{} trailing bytes after binary wire tree",
                bytes.len() - pos
            )));
        }
        Ok(wire)
    }

    /// Decodes one tree from the head of `bytes`, tolerating trailing
    /// bytes; returns the tree and the bytes it occupied. The building
    /// block for framing layers that pack several trees back to back.
    ///
    /// # Errors
    ///
    /// As [`Wire::from_bytes`], minus the trailing-bytes check.
    pub fn from_bytes_prefix(bytes: &[u8]) -> Result<(Wire, usize), WireError> {
        let mut pos = 0;
        let wire = Wire::decode_binary(bytes, &mut pos, 0)?;
        Ok((wire, pos))
    }

    fn decode_binary(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Wire, WireError> {
        if depth > BINARY_MAX_DEPTH {
            return Err(WireError("binary wire tree nests too deep".into()));
        }
        let tag = *bytes
            .get(*pos)
            .ok_or_else(|| WireError("truncated wire tree: missing tag".into()))?;
        *pos += 1;
        match tag {
            TAG_U64 => read_varint(bytes, pos).map(Wire::U64),
            TAG_F64 => {
                let raw = bytes
                    .get(*pos..*pos + 8)
                    .ok_or_else(|| WireError("truncated f64 bits".into()))?;
                *pos += 8;
                let mut le = [0u8; 8];
                le.copy_from_slice(raw);
                Ok(Wire::F64(f64::from_bits(u64::from_le_bytes(le))))
            }
            TAG_TEXT => Ok(Wire::Text(read_string(bytes, pos)?)),
            TAG_LIST => {
                // An entry takes at least a tag and a one-byte body.
                let count = checked_count(bytes, pos, 2)?;
                let mut items = Vec::with_capacity(count.min(PREALLOCATED_ENTRIES));
                for _ in 0..count {
                    items.push(Wire::decode_binary(bytes, pos, depth + 1)?);
                }
                Ok(Wire::List(items))
            }
            TAG_RECORD => {
                // A field takes at least a key length and a value.
                let count = checked_count(bytes, pos, 3)?;
                let mut fields = Vec::with_capacity(count.min(PREALLOCATED_ENTRIES));
                for _ in 0..count {
                    let key = read_string(bytes, pos)?;
                    fields.push((key, Wire::decode_binary(bytes, pos, depth + 1)?));
                }
                Ok(Wire::Record(fields))
            }
            other => Err(WireError(format!("unknown wire tag byte {other:#04x}"))),
        }
    }
}

/// Entries a decoder reserves room for before it has read them. A
/// claimed count past this grows the container as its entries actually
/// decode, so the memory a hostile length prefix can ask for is bounded
/// by the input it comes with: nested containers that each claim the
/// rest of the buffer reserve this much per level, not the claim.
pub const PREALLOCATED_ENTRIES: usize = 256;

/// Reads a length-prefixed count of entries of at least `min_entry`
/// bytes each, refusing a count the bytes remaining cannot hold.
fn checked_count(bytes: &[u8], pos: &mut usize, min_entry: u64) -> Result<usize, WireError> {
    let count = read_varint(bytes, pos)?;
    let remaining = (bytes.len() - *pos) as u64;
    if count > remaining / min_entry {
        return Err(WireError(format!(
            "container claims {count} entries but only {remaining} bytes remain"
        )));
    }
    Ok(count as usize)
}

fn read_string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let len = usize::try_from(read_varint(bytes, pos)?)
        .map_err(|_| WireError("string length overflows usize".into()))?;
    let raw = pos
        .checked_add(len)
        .and_then(|end| bytes.get(*pos..end))
        .ok_or_else(|| WireError("truncated string".into()))?;
    *pos += len;
    std::str::from_utf8(raw)
        .map(str::to_string)
        .map_err(|e| WireError(format!("invalid utf8 in wire string: {e}")))
}

/// Conversion of an accumulator to and from its portable wire form.
///
/// Every [`SweepReduce`](crate::sweep::SweepReduce) accumulator that can
/// leave its process implements this; the contract is that
/// `from_wire(&to_wire(x))` reconstructs `x` **bit-identically** (f64
/// fields by bit pattern), so a reduction folded from wire-shipped
/// partials equals the in-process fold exactly.
pub trait WireForm: Sized {
    /// Encodes `self` as a wire tree.
    fn to_wire(&self) -> Wire;

    /// Reconstructs a value from its wire tree.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the tree does not have this type's shape.
    fn from_wire(wire: &Wire) -> Result<Self, WireError>;
}

impl WireForm for u64 {
    fn to_wire(&self) -> Wire {
        Wire::U64(*self)
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        wire.as_u64()
    }
}

impl WireForm for f64 {
    fn to_wire(&self) -> Wire {
        Wire::F64(*self)
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        wire.as_f64()
    }
}

impl WireForm for String {
    fn to_wire(&self) -> Wire {
        Wire::Text(self.clone())
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        wire.as_text().map(str::to_string)
    }
}

impl<T: WireForm> WireForm for Vec<T> {
    fn to_wire(&self) -> Wire {
        Wire::List(self.iter().map(WireForm::to_wire).collect())
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        wire.as_list()?.iter().map(T::from_wire).collect()
    }
}

impl<A: WireForm, B: WireForm> WireForm for (A, B) {
    fn to_wire(&self) -> Wire {
        Wire::List(vec![self.0.to_wire(), self.1.to_wire()])
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        match wire.as_list()? {
            [a, b] => Ok((A::from_wire(a)?, B::from_wire(b)?)),
            other => Err(WireError(format!(
                "expected a 2-element pair, got {} elements",
                other.len()
            ))),
        }
    }
}

/// The Welford partials cross the wire raw
/// ([`Moments::raw_parts`]/[`Moments::from_raw_parts`]): merging
/// wire-shipped partials is bit-identical to merging the originals.
impl WireForm for Moments {
    fn to_wire(&self) -> Wire {
        let (n, mean, m2, m3, m4) = self.raw_parts();
        Wire::record([
            ("n", Wire::U64(n)),
            ("mean", Wire::F64(mean)),
            ("m2", Wire::F64(m2)),
            ("m3", Wire::F64(m3)),
            ("m4", Wire::F64(m4)),
        ])
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        Ok(Moments::from_raw_parts(
            wire.field("n")?.as_u64()?,
            wire.field("mean")?.as_f64()?,
            wire.field("m2")?.as_f64()?,
            wire.field("m3")?.as_f64()?,
            wire.field("m4")?.as_f64()?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(w: &Wire) -> Wire {
        let text = serde_json::to_string(w).unwrap();
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn scalars_round_trip_bit_identically() {
        for x in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1.0 / 3.0,
        ] {
            let back = round_trip(&Wire::F64(x));
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
        for n in [0u64, 1, u64::MAX, (1 << 53) + 1] {
            assert_eq!(round_trip(&Wire::U64(n)).as_u64().unwrap(), n);
        }
        assert_eq!(
            round_trip(&Wire::Text("u64:not-a-counter".into()))
                .as_text()
                .unwrap(),
            "u64:not-a-counter"
        );
    }

    #[test]
    fn trees_round_trip_and_field_lookup_works() {
        let w = Wire::record([
            ("count", Wire::U64(3)),
            ("xs", Wire::List(vec![Wire::F64(0.25), Wire::F64(-1.0)])),
        ]);
        let back = round_trip(&w);
        assert_eq!(back, w);
        assert_eq!(back.field("count").unwrap().as_u64().unwrap(), 3);
        assert_eq!(back.field("xs").unwrap().as_list().unwrap().len(), 2);
        assert!(back.field("missing").is_err());
        assert!(back.as_u64().is_err());
        assert!(Wire::U64(1).field("x").is_err());
    }

    #[test]
    fn moments_wire_merge_matches_in_process_merge() {
        let mut a = Moments::new();
        let mut b = Moments::new();
        for i in 0..40 {
            a.push((i as f64).sin());
            b.push((i as f64).cos() * 3.0);
        }
        let mut direct = a;
        direct.merge(&b);
        let mut shipped = Moments::from_wire(&round_trip(&a.to_wire())).unwrap();
        shipped.merge(&Moments::from_wire(&round_trip(&b.to_wire())).unwrap());
        let (n1, mean1, m2a, m3a, m4a) = direct.raw_parts();
        let (n2, mean2, m2b, m3b, m4b) = shipped.raw_parts();
        assert_eq!(n1, n2);
        assert_eq!(mean1.to_bits(), mean2.to_bits());
        assert_eq!(m2a.to_bits(), m2b.to_bits());
        assert_eq!(m3a.to_bits(), m3b.to_bits());
        assert_eq!(m4a.to_bits(), m4b.to_bits());
    }

    #[test]
    fn vec_and_pair_forms_round_trip() {
        let v: Vec<f64> = vec![0.1, 0.2, f64::NAN];
        let back = Vec::<f64>::from_wire(&round_trip(&v.to_wire())).unwrap();
        assert_eq!(back.len(), 3);
        for (x, y) in v.iter().zip(&back) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let p: (u64, Vec<f64>) = (9, vec![1.25]);
        let back = <(u64, Vec<f64>)>::from_wire(&round_trip(&p.to_wire())).unwrap();
        assert_eq!(back.0, 9);
        assert_eq!(back.1[0].to_bits(), 1.25f64.to_bits());
        assert!(<(u64, u64)>::from_wire(&Wire::List(vec![Wire::U64(1)])).is_err());
    }

    #[test]
    fn string_form_and_record_fields_round_trip() {
        let s = "journal header".to_string();
        let back = String::from_wire(&round_trip(&s.to_wire())).unwrap();
        assert_eq!(back, s);
        assert!(String::from_wire(&Wire::U64(3)).is_err());
        let rec = Wire::record([("a", Wire::U64(1)), ("b", Wire::F64(0.5))]);
        let fields = rec.fields().unwrap();
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, "a");
        assert!(Wire::U64(1).fields().is_err());
    }

    fn binary_round_trip(w: &Wire) -> Wire {
        Wire::from_bytes(&w.to_bytes()).unwrap()
    }

    #[test]
    fn binary_form_round_trips_bit_identically() {
        let trees = [
            Wire::U64(0),
            Wire::U64(u64::MAX),
            Wire::U64((1 << 53) + 1),
            Wire::F64(-0.0),
            Wire::F64(f64::NAN),
            Wire::F64(f64::from_bits(0x7ff8_dead_beef_0001)), // NaN payload
            Wire::Text(String::new()),
            Wire::Text("u64:not-a-counter — ünïcode".into()),
            Wire::List(vec![]),
            Wire::record([
                ("n", Wire::U64(40)),
                ("xs", Wire::List(vec![Wire::F64(0.1), Wire::F64(1.0 / 3.0)])),
                (
                    "nested",
                    Wire::record([("label", Wire::Text("2oo3".into()))]),
                ),
            ]),
        ];
        for w in &trees {
            let back = binary_round_trip(w);
            match (w, &back) {
                (Wire::F64(a), Wire::F64(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(&back, w),
            }
        }
    }

    #[test]
    fn binary_and_json_forms_decode_to_the_same_tree() {
        let w = Wire::record([
            ("count", Wire::U64(u64::MAX)),
            ("mean", Wire::F64(1.0 / 3.0)),
            ("tag", Wire::Text("mc".into())),
        ]);
        let via_json: Wire = serde_json::from_str(&serde_json::to_string(&w).unwrap()).unwrap();
        let via_binary = binary_round_trip(&w);
        assert_eq!(via_json, via_binary);
    }

    #[test]
    fn varints_cover_the_u64_range() {
        for v in [0u64, 1, 127, 128, 300, (1 << 35) - 7, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // 10-byte all-continuation varint overflows u64.
        let overflow = [0xffu8; 10];
        let mut pos = 0;
        assert!(read_varint(&overflow, &mut pos).is_err());
    }

    #[test]
    fn malformed_binary_is_rejected_not_panicked() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],                                       // missing tag
            vec![0x09],                                   // unknown tag
            vec![TAG_U64],                                // truncated varint
            vec![TAG_F64, 1, 2, 3],                       // truncated f64 bits
            vec![TAG_TEXT, 5, b'a'],                      // string shorter than its length
            vec![TAG_TEXT, 2, 0xff, 0xfe],                // invalid utf8
            vec![TAG_LIST, 0xff, 0xff, 0xff, 0xff, 0x0f], // absurd count
            vec![TAG_RECORD, 1, 1, b'k'],                 // record value missing
            vec![TAG_U64, 0x01, 0x00],                    // trailing byte
        ];
        for bytes in &cases {
            assert!(Wire::from_bytes(bytes).is_err(), "{bytes:?} should fail");
        }
        // Deep nesting is bounded.
        let mut deep = vec![];
        for _ in 0..=BINARY_MAX_DEPTH {
            deep.extend_from_slice(&[TAG_LIST, 1]);
        }
        deep.extend_from_slice(&[TAG_U64, 0]);
        assert!(Wire::from_bytes(&deep).is_err());
    }

    #[test]
    fn malformed_scalars_are_rejected() {
        for text in [
            "\"u64:\"",
            "\"u64:12x\"",
            "\"u64:-3\"",
            "\"f64:zzzz\"",
            "\"f64:\"",
            "\"naked string\"",
            "true",
            "3.5",
            "null",
        ] {
            assert!(
                serde_json::from_str::<Wire>(text).is_err(),
                "{text} should not decode"
            );
        }
    }
}
