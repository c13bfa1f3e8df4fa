//! The `ccapsp serve` wire protocol: length-prefixed, checksummed binary
//! frames over TCP, in the same self-validating style as the `*.ccsnap`
//! format ([`crate::snapshot`]).
//!
//! # Frame layout
//!
//! Every message — request or reply — is one frame (all integers
//! little-endian):
//!
//! | field    | size | value                                         |
//! |----------|------|-----------------------------------------------|
//! | magic    | 8    | `CCWIRE\0\n` ([`WIRE_MAGIC`])                 |
//! | version  | 4    | [`WIRE_VERSION`]                              |
//! | kind     | 4    | [`FrameKind`] discriminant                    |
//! | length   | 8    | payload byte count                            |
//! | checksum | 8    | FNV-1a over `kind ‖ length ‖ payload`         |
//! | payload  | len  | kind-specific body                            |
//!
//! The checksum covers the `kind` and `length` fields as well as the
//! payload, so a bit-flip *anywhere* past the version field is detected:
//! flipping `kind` to another valid discriminant, shrinking `length` to a
//! plausible smaller body, or corrupting one payload byte all surface as
//! [`WireError::ChecksumMismatch`], never as a quietly different message.
//! The survival guarantees mirror the snapshot decoder's, property-tested
//! in `tests/wire_props.rs`:
//!
//! * every truncation point → [`WireError::Truncated`];
//! * any single-bit flip → a typed error, never a decoded frame;
//! * a lying `length` is capped *before* allocation
//!   ([`WireError::Oversized`]), so a 16-exabyte header cannot reserve
//!   memory;
//! * trailing or missing payload bytes inside a kind-specific body →
//!   [`WireError::Malformed`].
//!
//! Node-count/length fields inside payloads go through the same checked
//! `u64 → usize` reader as the file decoders
//! ([`cc_graph::codec::Reader::len_u64`]), so 32-bit builds reject rather
//! than truncate.
//!
//! Kinds 2 and 18 carried the retired text metrics report; they are no
//! longer assigned, so a frame of either kind is
//! [`WireError::UnknownKind`]. The Prometheus-style exposition (kinds 7
//! and 24) replaces them.

use std::io::{Read, Write};

use cc_graph::codec::{put_bytes, put_u32, put_u64, DecodeError, Fnv1a, Reader};
use cc_graph::{NodeId, Weight};

use crate::service::{put_response, Query, Response};

/// Leading bytes of every frame.
pub const WIRE_MAGIC: [u8; 8] = *b"CCWIRE\0\n";

/// Protocol version this build speaks.
pub const WIRE_VERSION: u32 = 1;

/// Fixed frame header size: magic + version + kind + length + checksum.
pub const HEADER_LEN: usize = 32;

/// Default cap on a frame's declared payload length (64 MiB). A header
/// declaring more is rejected before any allocation.
pub const DEFAULT_FRAME_CAP: u64 = 64 << 20;

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket/stream failed.
    Io(std::io::Error),
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u32),
    /// The kind field is not a known [`FrameKind`].
    UnknownKind(u32),
    /// The input ended before the declared length was satisfied.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The frame checksum does not match its `kind ‖ length ‖ payload`.
    ChecksumMismatch,
    /// The declared payload length exceeds the configured cap.
    Oversized {
        /// The length the header declared.
        declared: u64,
        /// The cap it was checked against.
        cap: u64,
    },
    /// The payload is structurally invalid for its kind.
    Malformed(String),
    /// The server answered with an [`Reply::Error`] frame (client-side
    /// surface of a remote failure).
    Remote(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadMagic => write!(f, "not a ccwire frame (bad magic)"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated frame: needed {needed} bytes, {available} available"
                )
            }
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Oversized { declared, cap } => {
                write!(f, "frame declares {declared} payload bytes, cap is {cap}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
            WireError::Remote(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::BadMagic => WireError::BadMagic,
            DecodeError::UnsupportedVersion(v) => WireError::UnsupportedVersion(v),
            DecodeError::Truncated { needed, available } => {
                WireError::Truncated { needed, available }
            }
            DecodeError::ChecksumMismatch { .. } => WireError::ChecksumMismatch,
            DecodeError::Malformed(what) => WireError::Malformed(what),
        }
    }
}

/// Frame discriminants. Requests are 1–8, replies 17–25, so a stray reply
/// can never be mistaken for a request (and vice versa); 2 and 18 are
/// retired (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum FrameKind {
    /// Client → server: a batch of queries against a named snapshot.
    Batch = 1,
    /// Client → server: request a named snapshot's serving info.
    Info = 3,
    /// Client → server: apply a `cc_dynamic` delta to a named snapshot.
    ApplyDelta = 4,
    /// Client → server: register a new snapshot version under a name.
    SwapSnapshot = 5,
    /// Client → server: drain and stop the server.
    Shutdown = 6,
    /// Client → server: request the Prometheus-style exposition
    /// (metrics v2: rolling-window rates, gauges, per-snapshot families).
    MetricsV2 = 7,
    /// Client → server: request the flight-recorder ring as JSON.
    FlightDump = 8,
    /// Server → client: the responses to a [`FrameKind::Batch`], in order.
    BatchOk = 17,
    /// Server → client: snapshot serving info.
    InfoOk = 19,
    /// Server → client: an admin operation succeeded.
    AdminOk = 20,
    /// Server → client: the job queue is full; retry later.
    Overload = 21,
    /// Server → client: the request failed (message payload).
    Error = 22,
    /// Server → client: shutdown acknowledged; the server is draining.
    ShutdownOk = 23,
    /// Server → client: the Prometheus-style exposition body.
    MetricsV2Ok = 24,
    /// Server → client: the flight-recorder JSON document.
    FlightDumpOk = 25,
}

impl FrameKind {
    fn from_u32(k: u32) -> Option<Self> {
        Some(match k {
            1 => FrameKind::Batch,
            3 => FrameKind::Info,
            4 => FrameKind::ApplyDelta,
            5 => FrameKind::SwapSnapshot,
            6 => FrameKind::Shutdown,
            7 => FrameKind::MetricsV2,
            8 => FrameKind::FlightDump,
            17 => FrameKind::BatchOk,
            19 => FrameKind::InfoOk,
            20 => FrameKind::AdminOk,
            21 => FrameKind::Overload,
            22 => FrameKind::Error,
            23 => FrameKind::ShutdownOk,
            24 => FrameKind::MetricsV2Ok,
            25 => FrameKind::FlightDumpOk,
            _ => return None,
        })
    }
}

/// One decoded frame: its kind plus the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub kind: FrameKind,
    /// The kind-specific body.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encodes the frame into its wire bytes (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&WIRE_MAGIC);
        put_u32(&mut out, WIRE_VERSION);
        put_u32(&mut out, self.kind as u32);
        put_u64(&mut out, self.payload.len() as u64);
        put_u64(&mut out, frame_checksum(self.kind as u32, &self.payload));
        out.extend_from_slice(&self.payload);
        out
    }
}

/// The checksummed region: `kind ‖ length ‖ payload`.
fn frame_checksum(kind: u32, payload: &[u8]) -> u64 {
    Fnv1a::default()
        .bytes(&kind.to_le_bytes())
        .bytes(&(payload.len() as u64).to_le_bytes())
        .bytes(payload)
        .finish()
}

/// Parses a frame header from the front of `cur` into `(kind, payload
/// length, checksum)`. The cap check runs on the raw `u64` before any
/// `usize` conversion, so a 16-exabyte header is Oversized, not a 32-bit
/// overflow.
fn read_header(cur: &mut Reader<'_>, cap: u64) -> Result<(u32, usize, u64), WireError> {
    if cur.take(WIRE_MAGIC.len())? != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = cur.u32()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = cur.u32()?;
    let declared = cur.u64()?;
    if declared > cap {
        return Err(WireError::Oversized { declared, cap });
    }
    let len = usize::try_from(declared).map_err(|_| WireError::Oversized { declared, cap })?;
    Ok((kind, len, cur.u64()?))
}

/// Checks a received payload against its header. The checksum verdict
/// comes before the kind lookup: a bit-flipped kind field fails the
/// checksum (it is covered), which is the more precise diagnosis.
fn verify(kind: u32, checksum: u64, payload: &[u8]) -> Result<FrameKind, WireError> {
    if frame_checksum(kind, payload) != checksum {
        return Err(WireError::ChecksumMismatch);
    }
    FrameKind::from_u32(kind).ok_or(WireError::UnknownKind(kind))
}

/// Decodes one frame from the front of `data`, returning it plus the byte
/// count consumed. Never allocates more than `cap` bytes no matter what the
/// header declares.
pub fn decode_frame(data: &[u8], cap: u64) -> Result<(Frame, usize), WireError> {
    let mut cur = Reader::new(data);
    let (kind, len, checksum) = read_header(&mut cur, cap)?;
    let payload = cur.take(len)?;
    let kind = verify(kind, checksum, payload)?;
    let frame = Frame {
        kind,
        payload: payload.to_vec(),
    };
    Ok((frame, HEADER_LEN + len))
}

/// Reads exactly `buf.len()` bytes, looping over short reads. `Ok(0)` from
/// the reader (peer closed) surfaces as [`WireError::Truncated`] unless it
/// happens before the first byte, which returns `Ok(false)` (clean EOF at a
/// frame boundary).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(WireError::Truncated {
                    needed: buf.len(),
                    available: filled,
                });
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame from a blocking stream. Returns `Ok(None)` on a clean
/// EOF at a frame boundary (the peer closed between frames); a close
/// mid-frame is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read, cap: u64) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header)? {
        return Ok(None);
    }
    let (kind, len, checksum) = read_header(&mut Reader::new(&header), cap)?;
    let mut payload = vec![0u8; len];
    if !read_full(r, &mut payload)? && len > 0 {
        return Err(WireError::Truncated {
            needed: len,
            available: 0,
        });
    }
    let kind = verify(kind, checksum, &payload)?;
    Ok(Some(Frame { kind, payload }))
}

/// Writes one frame to a blocking stream and flushes it.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a batch of queries against the newest version of a named
    /// snapshot; answered by [`Reply::Batch`] (or [`Reply::Overload`]).
    Batch {
        /// Snapshot name (`"default"` for single-snapshot servers).
        name: String,
        /// Queries, answered in order.
        queries: Vec<Query>,
    },
    /// Request serving info for a named snapshot; answered by
    /// [`Reply::Info`].
    Info {
        /// Snapshot name.
        name: String,
    },
    /// Apply an encoded `cc_dynamic` delta to a named snapshot (blue/green
    /// version bump); answered by [`Reply::AdminOk`].
    ApplyDelta {
        /// Snapshot name.
        name: String,
        /// `Delta::to_bytes` encoding.
        delta: Vec<u8>,
    },
    /// Register an encoded snapshot under a name, replacing its live state
    /// at the next version; answered by [`Reply::AdminOk`].
    SwapSnapshot {
        /// Snapshot name.
        name: String,
        /// `Snapshot::to_bytes` encoding.
        snapshot: Vec<u8>,
    },
    /// Drain in-flight work and stop the server; answered by
    /// [`Reply::ShutdownOk`].
    Shutdown,
    /// Request the Prometheus-style exposition (rolling-window QPS,
    /// latency quantiles, gauges, per-snapshot families); answered by
    /// [`Reply::MetricsV2`]. Same body as the HTTP `GET /metrics`
    /// responder.
    MetricsV2,
    /// Request the flight-recorder ring of recent structured events as a
    /// `cc-flight/v1` JSON document; answered by [`Reply::FlightDump`].
    FlightDump,
}

/// Serving info for one snapshot, carried by [`Reply::Info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeInfo {
    /// Snapshot name.
    pub name: String,
    /// Live (blue/green) version.
    pub version: u32,
    /// Node count.
    pub n: usize,
    /// Producing algorithm (from the snapshot metadata).
    pub algo: String,
    /// Resident size estimate of the distance structure, bytes.
    pub mem_bytes: u64,
    /// Hot-row cache hits so far.
    pub cache_hits: u64,
    /// Hot-row cache misses so far.
    pub cache_misses: u64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Responses to a [`Request::Batch`], in query order.
    Batch(Vec<Response>),
    /// Serving info for the requested snapshot.
    Info(ServeInfo),
    /// An admin operation succeeded (human-readable detail).
    AdminOk(String),
    /// The job queue was full; the batch was not enqueued. Carries the
    /// queue depth at rejection. Retry after a backoff.
    Overload(u64),
    /// The request failed; human-readable reason.
    Error(String),
    /// Shutdown acknowledged.
    ShutdownOk,
    /// The Prometheus-style exposition body (metrics v2).
    MetricsV2(String),
    /// The flight-recorder ring as a `cc-flight/v1` JSON document.
    FlightDump(String),
}

fn encode_queries(out: &mut Vec<u8>, queries: &[Query]) {
    put_u64(out, queries.len() as u64);
    for q in queries {
        let (tag, a, b) = match *q {
            Query::Dist(u, v) => (1u8, u, v),
            Query::Route(u, v) => (2, u, v),
            Query::KNearest(u, k) => (3, u, k),
        };
        out.push(tag);
        put_u64(out, a as u64);
        put_u64(out, b as u64);
    }
}

fn decode_queries(cur: &mut Reader<'_>) -> Result<Vec<Query>, WireError> {
    let count = cur.len_u64()?;
    // Each query is 17 bytes; cap the preallocation by what the payload can
    // actually hold, same discipline as the snapshot decoder.
    let mut queries = Vec::with_capacity(count.min(cur.remaining() / 17 + 1));
    for _ in 0..count {
        let tag = cur.u8()?;
        let a = cur.len_u64()?;
        let b = cur.len_u64()?;
        queries.push(match tag {
            1 => Query::Dist(a, b),
            2 => Query::Route(a, b),
            3 => Query::KNearest(a, b),
            t => return Err(WireError::Malformed(format!("unknown query tag {t}"))),
        });
    }
    Ok(queries)
}

/// Encodes responses as a count followed by each response in the byte
/// layout the response fingerprint hashes ([`crate::service::put_response`]),
/// so what is checked end-to-end is literally what crossed the wire.
fn encode_responses(out: &mut Vec<u8>, responses: &[Response]) {
    put_u64(out, responses.len() as u64);
    for r in responses {
        put_response(out, r);
    }
}

fn decode_responses(cur: &mut Reader<'_>) -> Result<Vec<Response>, WireError> {
    let count = cur.len_u64()?;
    let mut responses = Vec::with_capacity(count.min(cur.remaining() / 9 + 1));
    for _ in 0..count {
        let tag = cur.u8()?;
        responses.push(match tag {
            1 => Response::Dist(cur.u64()?),
            2 => match cur.u8()? {
                0 => Response::Route(None),
                1 => {
                    let len = cur.len_u64()?;
                    let mut nodes: Vec<NodeId> =
                        Vec::with_capacity(len.min(cur.remaining() / 8 + 1));
                    for _ in 0..len {
                        nodes.push(cur.len_u64()?);
                    }
                    Response::Route(Some(nodes))
                }
                f => return Err(WireError::Malformed(format!("bad route flag {f}"))),
            },
            3 => {
                let len = cur.len_u64()?;
                let mut rows: Vec<(NodeId, Weight)> =
                    Vec::with_capacity(len.min(cur.remaining() / 16 + 1));
                for _ in 0..len {
                    let v = cur.len_u64()?;
                    let d = cur.u64()?;
                    rows.push((v, d));
                }
                Response::KNearest(rows)
            }
            t => return Err(WireError::Malformed(format!("unknown response tag {t}"))),
        });
    }
    Ok(responses)
}

impl Request {
    /// Encodes the request as a frame.
    pub fn to_frame(&self) -> Frame {
        let mut payload = Vec::new();
        let kind = match self {
            Request::Batch { name, queries } => {
                put_bytes(&mut payload, name.as_bytes());
                encode_queries(&mut payload, queries);
                FrameKind::Batch
            }
            Request::Info { name } => {
                put_bytes(&mut payload, name.as_bytes());
                FrameKind::Info
            }
            Request::ApplyDelta { name, delta } => {
                put_bytes(&mut payload, name.as_bytes());
                put_bytes(&mut payload, delta);
                FrameKind::ApplyDelta
            }
            Request::SwapSnapshot { name, snapshot } => {
                put_bytes(&mut payload, name.as_bytes());
                put_bytes(&mut payload, snapshot);
                FrameKind::SwapSnapshot
            }
            Request::Shutdown => FrameKind::Shutdown,
            Request::MetricsV2 => FrameKind::MetricsV2,
            Request::FlightDump => FrameKind::FlightDump,
        };
        Frame { kind, payload }
    }

    /// Decodes a request from a frame. Reply kinds are
    /// [`WireError::Malformed`] here — a server never accepts them.
    pub fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        let mut cur = Reader::new(&frame.payload);
        let req = match frame.kind {
            FrameKind::Batch => Request::Batch {
                name: cur.str()?,
                queries: decode_queries(&mut cur)?,
            },
            FrameKind::Info => Request::Info { name: cur.str()? },
            FrameKind::ApplyDelta => Request::ApplyDelta {
                name: cur.str()?,
                delta: cur.bytes()?.to_vec(),
            },
            FrameKind::SwapSnapshot => Request::SwapSnapshot {
                name: cur.str()?,
                snapshot: cur.bytes()?.to_vec(),
            },
            FrameKind::Shutdown => Request::Shutdown,
            FrameKind::MetricsV2 => Request::MetricsV2,
            FrameKind::FlightDump => Request::FlightDump,
            k => {
                return Err(WireError::Malformed(format!(
                    "frame kind {:?} is not a request",
                    k
                )))
            }
        };
        cur.finish("after payload body")?;
        Ok(req)
    }
}

impl Reply {
    /// Encodes the reply as a frame.
    pub fn to_frame(&self) -> Frame {
        let mut payload = Vec::new();
        let kind = match self {
            Reply::Batch(responses) => {
                encode_responses(&mut payload, responses);
                FrameKind::BatchOk
            }
            Reply::Info(info) => {
                put_bytes(&mut payload, info.name.as_bytes());
                put_u32(&mut payload, info.version);
                put_u64(&mut payload, info.n as u64);
                put_bytes(&mut payload, info.algo.as_bytes());
                put_u64(&mut payload, info.mem_bytes);
                put_u64(&mut payload, info.cache_hits);
                put_u64(&mut payload, info.cache_misses);
                FrameKind::InfoOk
            }
            Reply::AdminOk(msg) => {
                put_bytes(&mut payload, msg.as_bytes());
                FrameKind::AdminOk
            }
            Reply::Overload(depth) => {
                put_u64(&mut payload, *depth);
                FrameKind::Overload
            }
            Reply::Error(msg) => {
                put_bytes(&mut payload, msg.as_bytes());
                FrameKind::Error
            }
            Reply::ShutdownOk => FrameKind::ShutdownOk,
            Reply::MetricsV2(text) => {
                put_bytes(&mut payload, text.as_bytes());
                FrameKind::MetricsV2Ok
            }
            Reply::FlightDump(json) => {
                put_bytes(&mut payload, json.as_bytes());
                FrameKind::FlightDumpOk
            }
        };
        Frame { kind, payload }
    }

    /// Decodes a reply from a frame. Request kinds are
    /// [`WireError::Malformed`] here — a client never accepts them.
    pub fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        let mut cur = Reader::new(&frame.payload);
        let reply = match frame.kind {
            FrameKind::BatchOk => Reply::Batch(decode_responses(&mut cur)?),
            FrameKind::InfoOk => Reply::Info(ServeInfo {
                name: cur.str()?,
                version: cur.u32()?,
                n: cur.len_u64()?,
                algo: cur.str()?,
                mem_bytes: cur.u64()?,
                cache_hits: cur.u64()?,
                cache_misses: cur.u64()?,
            }),
            FrameKind::AdminOk => Reply::AdminOk(cur.str()?),
            FrameKind::Overload => Reply::Overload(cur.u64()?),
            FrameKind::Error => Reply::Error(cur.str()?),
            FrameKind::ShutdownOk => Reply::ShutdownOk,
            FrameKind::MetricsV2Ok => Reply::MetricsV2(cur.str()?),
            FrameKind::FlightDumpOk => Reply::FlightDump(cur.str()?),
            k => {
                return Err(WireError::Malformed(format!(
                    "frame kind {:?} is not a reply",
                    k
                )))
            }
        };
        cur.finish("after payload body")?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let frame = req.to_frame();
        let bytes = frame.encode();
        let (decoded, consumed) = decode_frame(&bytes, DEFAULT_FRAME_CAP).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
        assert_eq!(Request::from_frame(&decoded).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Batch {
            name: "default".into(),
            queries: vec![Query::Dist(0, 5), Query::Route(3, 4), Query::KNearest(2, 8)],
        });
        roundtrip_request(Request::Info { name: "x".into() });
        roundtrip_request(Request::ApplyDelta {
            name: "default".into(),
            delta: vec![1, 2, 3],
        });
        roundtrip_request(Request::SwapSnapshot {
            name: "default".into(),
            snapshot: vec![9; 40],
        });
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::MetricsV2);
        roundtrip_request(Request::FlightDump);
    }

    #[test]
    fn replies_roundtrip() {
        for reply in [
            Reply::Batch(vec![
                Response::Dist(17),
                Response::Route(None),
                Response::Route(Some(vec![1, 2, 3])),
                Response::KNearest(vec![(4, 9), (5, 11)]),
            ]),
            Reply::Info(ServeInfo {
                name: "default".into(),
                version: 3,
                n: 128,
                algo: "thm11".into(),
                mem_bytes: 131072,
                cache_hits: 10,
                cache_misses: 2,
            }),
            Reply::AdminOk("applied".into()),
            Reply::Overload(64),
            Reply::Error("unknown snapshot".into()),
            Reply::ShutdownOk,
            Reply::MetricsV2("# TYPE ccapsp_qps gauge\nccapsp_qps{window=\"1s\"} 42\n".into()),
            Reply::FlightDump("{\"schema\":\"cc-flight/v1\",\"count\":0,\"events\":[]}\n".into()),
        ] {
            let frame = reply.to_frame();
            let (decoded, _) = decode_frame(&frame.encode(), DEFAULT_FRAME_CAP).unwrap();
            assert_eq!(Reply::from_frame(&decoded).unwrap(), reply);
        }
    }

    #[test]
    fn lying_length_is_capped_before_allocation() {
        let mut bytes = Request::MetricsV2.to_frame().encode();
        // Overwrite the length field (offset 16) with 16 EiB.
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        match decode_frame(&bytes, DEFAULT_FRAME_CAP) {
            Err(WireError::Oversized { declared, cap }) => {
                assert_eq!(declared, u64::MAX);
                assert_eq!(cap, DEFAULT_FRAME_CAP);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_in_payload_are_malformed() {
        let mut frame = Request::MetricsV2.to_frame();
        frame.payload.push(0);
        let (decoded, _) = decode_frame(&frame.encode(), DEFAULT_FRAME_CAP).unwrap();
        assert!(matches!(
            Request::from_frame(&decoded),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn retired_metrics_kinds_decode_to_unknown_kind() {
        for kind in [2u32, 18] {
            let mut bytes = Request::MetricsV2.to_frame().encode();
            bytes[12..16].copy_from_slice(&kind.to_le_bytes());
            bytes[24..32].copy_from_slice(&frame_checksum(kind, &[]).to_le_bytes());
            assert!(matches!(
                decode_frame(&bytes, DEFAULT_FRAME_CAP),
                Err(WireError::UnknownKind(k)) if k == kind
            ));
            assert!(matches!(
                read_frame(&mut &bytes[..], DEFAULT_FRAME_CAP),
                Err(WireError::UnknownKind(k)) if k == kind
            ));
        }
    }

    #[test]
    fn read_frame_distinguishes_clean_eof_from_mid_frame_close() {
        let bytes = Request::MetricsV2.to_frame().encode();
        let mut empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut empty, DEFAULT_FRAME_CAP),
            Ok(None)
        ));
        let mut half = &bytes[..bytes.len() / 2];
        assert!(matches!(
            read_frame(&mut half, DEFAULT_FRAME_CAP),
            Err(WireError::Truncated { .. })
        ));
        let mut whole = &bytes[..];
        let frame = read_frame(&mut whole, DEFAULT_FRAME_CAP).unwrap().unwrap();
        assert_eq!(Request::from_frame(&frame).unwrap(), Request::MetricsV2);
    }
}
