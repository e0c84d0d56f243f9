//! Compact binary framing for the hot path of the wire protocol.
//!
//! JSON-lines frames are self-describing and debuggable, but a
//! [`Message::Result`] carrying hex-encoded `f64` bit patterns and
//! decimal `u64` counters inflates every accumulator several-fold and
//! dominates coordinator/worker traffic at small lease sizes. Since
//! protocol v3 a worker sends its `Result` frames in this module's
//! binary form:
//!
//! ```text
//! 0x00  varint(payload_len)  payload
//! ```
//!
//! where the payload is `varint(start) varint(end) varint(cell_count)`
//! followed by each cell in [`Wire::encode_binary`] form (`f64` as raw
//! little-endian bits, `u64` as a varint). The `0x00` marker byte can
//! never begin a JSON-lines frame, so a receiver demultiplexes the two
//! forms on the first byte of each frame and a mixed stream — JSON
//! control frames interleaved with binary results — parses cleanly.
//! Everything else (handshake, leases, heartbeats, aborts) stays JSON:
//! those frames are tiny and keeping them readable keeps the protocol
//! debuggable with a terminal. The journal and provenance formats are
//! untouched — binary is a transport encoding, not a storage format.
//!
//! Both forms carry the same exact bits (`tests/dist_equivalence.rs`
//! proves round-trip equivalence over every `WireForm` accumulator), so
//! framing is pure transport policy: the coordinator always accepts
//! both, workers choose per [`FramingMode`] (binary unless overridden).

use super::Message;
use divrel_numerics::wire::{read_varint, write_varint, Wire, WireError, PREALLOCATED_ENTRIES};
use std::io::ErrorKind;

/// First byte of every binary frame. JSON-lines frames start with a
/// printable character, so this byte is an unambiguous demultiplexer.
pub const BINARY_FRAME_MARKER: u8 = 0x00;

/// Hard cap on a binary frame's payload length (64 MiB). A corrupt or
/// hostile length prefix fails here instead of driving the receive
/// buffer to OOM.
pub const MAX_BINARY_PAYLOAD: u64 = 64 << 20;

/// How a worker frames its `Result` messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramingMode {
    /// Binary — the default on every connection.
    Auto,
    /// Always JSON lines (the `DIVREL_DIST_FRAMING=json` override): a
    /// debugging aid for capturing readable traffic.
    Json,
    /// Always binary (the `DIVREL_DIST_FRAMING=binary` override), the
    /// same as the default.
    Binary,
}

impl FramingMode {
    /// Reads the `DIVREL_DIST_FRAMING` override (`json` / `binary`);
    /// anything else (including unset) is [`FramingMode::Auto`].
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("DIVREL_DIST_FRAMING").as_deref() {
            Ok("json") => FramingMode::Json,
            Ok("binary") => FramingMode::Binary,
            _ => FramingMode::Auto,
        }
    }

    /// Whether a worker holding this mode sends binary `Result`
    /// frames. `protocol` does not change the answer, since every
    /// connection speaks [`super::PROTOCOL_VERSION`]; the scenario
    /// benchmark passes it.
    #[must_use]
    pub fn use_binary(self, _protocol: u64) -> bool {
        self != FramingMode::Json
    }
}

/// Encodes a `Result` frame in the binary form, marker and length
/// prefix included.
#[must_use]
pub fn encode_result_frame(start: u64, end: u64, cells: &[Wire]) -> Vec<u8> {
    let mut payload = Vec::new();
    write_varint(&mut payload, start);
    write_varint(&mut payload, end);
    write_varint(&mut payload, cells.len() as u64);
    for cell in cells {
        cell.encode_binary(&mut payload);
    }
    let mut frame = Vec::with_capacity(payload.len() + 10);
    frame.push(BINARY_FRAME_MARKER);
    write_varint(&mut frame, payload.len() as u64);
    frame.extend_from_slice(&payload);
    frame
}

/// Decodes a binary payload (marker and length prefix already
/// stripped) into its [`Message`].
///
/// # Errors
///
/// [`WireError`] on truncation, trailing bytes, or malformed cells.
pub fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
    let mut pos = 0;
    let start = read_varint(payload, &mut pos)?;
    let end = read_varint(payload, &mut pos)?;
    let count = read_varint(payload, &mut pos)?;
    let remaining = (payload.len() - pos) as u64;
    // A cell takes at least a tag and a one-byte body.
    if count > remaining / 2 {
        return Err(WireError(format!(
            "result frame claims {count} cells but only {remaining} bytes remain"
        )));
    }
    let mut cells = Vec::with_capacity((count as usize).min(PREALLOCATED_ENTRIES));
    for _ in 0..count {
        let (cell, used) = Wire::from_bytes_prefix(&payload[pos..])?;
        pos += used;
        cells.push(cell);
    }
    if pos != payload.len() {
        return Err(WireError(format!(
            "{} trailing bytes in binary result frame",
            payload.len() - pos
        )));
    }
    Ok(Message::Result { start, end, cells })
}

/// What [`try_extract`] found at the head of the receive buffer.
pub enum Extracted {
    /// A complete binary frame: the decoded message and the total
    /// bytes (marker + length prefix + payload) to drain.
    Frame(Message, usize),
    /// The buffer holds only part of a frame; read more bytes.
    Incomplete,
}

/// Attempts to extract one complete binary frame from the head of
/// `pending` (which must start with [`BINARY_FRAME_MARKER`]).
///
/// # Errors
///
/// `InvalidData` for an oversized length prefix or a malformed payload
/// — the stream can no longer be trusted.
pub fn try_extract(pending: &[u8]) -> std::io::Result<Extracted> {
    debug_assert_eq!(pending.first(), Some(&BINARY_FRAME_MARKER));
    let mut pos = 1usize;
    // The length prefix itself may be split across reads: a truncated
    // varint is Incomplete, not an error.
    let len = match read_varint_partial(pending, &mut pos) {
        Some(Ok(len)) => len,
        Some(Err(e)) => return Err(std::io::Error::new(ErrorKind::InvalidData, e.0)),
        None => return Ok(Extracted::Incomplete),
    };
    if len > MAX_BINARY_PAYLOAD {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("binary frame claims {len} bytes (cap {MAX_BINARY_PAYLOAD})"),
        ));
    }
    let len = len as usize;
    let Some(payload) = pending.get(pos..pos + len) else {
        return Ok(Extracted::Incomplete);
    };
    let msg =
        decode_payload(payload).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.0))?;
    Ok(Extracted::Frame(msg, pos + len))
}

/// Like [`read_varint`] but distinguishes "buffer ended mid-varint"
/// (`None`) from a genuinely malformed varint (`Some(Err)`).
fn read_varint_partial(bytes: &[u8], pos: &mut usize) -> Option<Result<u64, WireError>> {
    let tail = &bytes[*pos..];
    // A u64 varint is at most 10 bytes; if the buffer ends before a
    // terminating byte within that window, we need more data.
    let mut probe = 0usize;
    match read_varint(tail, &mut probe) {
        Ok(v) => {
            *pos += probe;
            Some(Ok(v))
        }
        Err(e) => {
            if tail.len() < 10 && tail.iter().all(|b| b & 0x80 != 0) {
                None
            } else {
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cells() -> Vec<Wire> {
        vec![
            Wire::record([("n", Wire::U64(u64::MAX)), ("mean", Wire::F64(1.0 / 3.0))]),
            Wire::record([("tag", Wire::Text("mc".into()))]),
        ]
    }

    #[test]
    fn result_frames_round_trip() {
        let cells = sample_cells();
        let frame = encode_result_frame(3, 9, &cells);
        assert_eq!(frame[0], BINARY_FRAME_MARKER);
        match try_extract(&frame).unwrap() {
            Extracted::Frame(
                Message::Result {
                    start,
                    end,
                    cells: got,
                },
                used,
            ) => {
                assert_eq!((start, end), (3, 9));
                assert_eq!(got, cells);
                assert_eq!(used, frame.len());
            }
            _ => panic!("expected a complete frame"),
        }
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let frame = encode_result_frame(0, 2, &sample_cells());
        for cut in 1..frame.len() {
            match try_extract(&frame[..cut]).unwrap() {
                Extracted::Incomplete => {}
                Extracted::Frame(..) => panic!("complete at {cut}/{} bytes", frame.len()),
            }
        }
    }

    #[test]
    fn corrupt_frames_are_invalid_data() {
        // Oversized length prefix.
        let mut huge = vec![BINARY_FRAME_MARKER];
        divrel_numerics::wire::write_varint(&mut huge, MAX_BINARY_PAYLOAD + 1);
        assert!(try_extract(&huge).is_err());
        // Garbage payload of the declared length.
        let garbage = vec![BINARY_FRAME_MARKER, 4, 0xee, 0xee, 0xee, 0xee];
        assert!(try_extract(&garbage).is_err());
        // A bogus node tag inside an otherwise well-formed frame.
        let mut bad_tag = encode_result_frame(0, 1, &sample_cells()[..1]);
        // marker, 1-byte length, varints 0/1/1, then the first cell's
        // record tag at offset 5.
        assert_eq!(bad_tag[5], 0x05);
        bad_tag[5] = 0xff;
        assert!(try_extract(&bad_tag).is_err());
    }

    #[test]
    fn framing_mode_policy() {
        let v4 = super::super::PROTOCOL_VERSION;
        assert!(FramingMode::Auto.use_binary(v4));
        assert!(!FramingMode::Json.use_binary(v4));
        assert!(FramingMode::Binary.use_binary(v4));
    }
}
