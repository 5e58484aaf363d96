//! Length-prefixed framing for [`Envelope`]s over byte streams.
//!
//! The TCP backend must put the *same bytes* on the wire that the
//! in-process carrier hands over, so a frame is nothing but the
//! existing [`codec`] envelope encoding behind a length
//! prefix:
//!
//! ```text
//! ┌─────────────┬───────────────────────────────────────────────────┐
//! │ len: u32 LE │ envelope bytes (codec.rs, verbatim)               │
//! ├─────────────┼──────┬──────┬─────────────┬──────────┬────────────┤
//! │             │ from │  to  │ correlation │ len: u32 │ payload …  │
//! │             │ u16  │ u16  │     u64     │          │ [+trace    │
//! │             │      │      │             │          │  tail 17B] │
//! └─────────────┴──────┴──────┴─────────────┴──────────┴────────────┘
//! ```
//!
//! Each direction of a connection additionally opens with a 4-byte
//! magic ([`FRAME_MAGIC`]) so a peer speaking the wrong protocol (or a
//! stream that desynchronised before the first frame) is rejected with
//! a typed error instead of being misread as a length prefix.
//!
//! Hostile-input posture (property-tested in `tests/frame_props.rs`):
//!
//! * A length prefix above [`MAX_FRAME`] is rejected **before any
//!   allocation** ([`FrameError::Oversized`]).
//! * A stream that ends cleanly *between* frames reads as
//!   [`FrameError::Closed`]; one that ends *inside* a frame reads as
//!   [`FrameError::Truncated`].
//! * Garbage that survives the length prefix fails envelope decoding
//!   with [`FrameError::Decode`]; the connection is then torn down —
//!   after an arbitrary prefix desync there is no reliable way to find
//!   the next frame boundary, so closing (and letting the dialer
//!   reconnect) is the resynchronisation strategy.
//!
//! All functions take `impl Read`/`impl Write`, so the exhaustive tests
//! run over in-memory cursors without opening sockets.

use crate::codec::{self, Decode, DecodeError, Encode};
use crate::envelope::Envelope;
use bytes::{Bytes, BytesMut};
use std::io::{self, Read, Write};

/// Per-direction stream preamble: protocol name + version.
pub const FRAME_MAGIC: [u8; 4] = *b"MDL1";

/// Hard ceiling on one frame's byte length: the envelope header
/// (16 bytes), a payload at the codec's own [`codec::MAX_LEN`] cap, and
/// the optional 17-byte trace tail. Anything larger is an attack or a
/// desynchronised stream, and is rejected without allocating.
pub const MAX_FRAME: u32 = 16 + codec::MAX_LEN as u32 + 17;

/// Typed failure surface of the frame reader/writer.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly on a frame boundary (orderly close).
    Closed,
    /// The stream ended inside a length prefix or frame body.
    Truncated {
        /// Bytes the reader still needed when the stream ended.
        needed: usize,
    },
    /// The peer's opening bytes were not [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// A length prefix exceeded [`MAX_FRAME`]; nothing was allocated.
    Oversized(u32),
    /// The frame body did not decode as an [`Envelope`].
    Decode(DecodeError),
    /// Transport-level I/O failure (reset, timeout, …).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed between frames"),
            FrameError::Truncated { needed } => {
                write!(f, "stream ended mid-frame ({needed} bytes short)")
            }
            FrameError::BadMagic(m) => write!(f, "bad stream magic {m:02x?}"),
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
            FrameError::Decode(e) => write!(f, "frame body undecodable: {e}"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Decode(e)
    }
}

/// Classify an I/O error from mid-frame reading: end-of-file inside a
/// frame is [`FrameError::Truncated`], everything else passes through.
fn mid_frame(e: io::Error, needed: usize) -> FrameError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        FrameError::Truncated { needed }
    } else {
        FrameError::Io(e)
    }
}

/// Write the per-direction stream preamble.
pub fn write_magic(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&FRAME_MAGIC)
}

/// Read and verify the peer's stream preamble.
pub fn read_magic(r: &mut impl Read) -> Result<(), FrameError> {
    let mut magic = [0u8; 4];
    match read_full(r, &mut magic) {
        ReadFull::Done => {}
        ReadFull::Eof { at: 0 } => return Err(FrameError::Closed),
        ReadFull::Eof { at } => return Err(FrameError::Truncated { needed: 4 - at }),
        ReadFull::Err(e) => return Err(mid_frame(e, 4)),
    }
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    Ok(())
}

/// Bytes [`write_frame`] writes for `env`: the 4-byte length prefix and
/// the envelope.
pub fn frame_len(env: &Envelope) -> usize {
    4 + env.encoded_len()
}

/// Encode `env` and write it as one length-prefixed frame.
///
/// The envelope bytes are produced by the shared codec, so a frame body
/// is byte-for-byte what [`Envelope::encode`] emits — traced envelopes
/// carry the 17-byte trace tail, untraced ones stay tail-free.
pub fn write_frame(w: &mut impl Write, env: &Envelope) -> io::Result<usize> {
    let body_len = env.encoded_len();
    let mut buf = BytesMut::with_capacity(frame_len(env));
    buf.extend_from_slice(&(body_len as u32).to_le_bytes());
    env.encode(&mut buf);
    w.write_all(&buf)?;
    Ok(buf.len())
}

/// Outcome of [`read_full`]: distinguishes a clean EOF (with progress
/// count) from other errors so callers can classify boundary vs
/// mid-frame stream ends.
enum ReadFull {
    Done,
    Eof { at: usize },
    Err(io::Error),
}

/// `read_exact` that reports *where* the stream ended instead of
/// folding everything into `UnexpectedEof`.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> ReadFull {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return ReadFull::Eof { at: filled },
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return ReadFull::Err(e),
        }
    }
    ReadFull::Done
}

/// Read one length-prefixed frame and decode its envelope.
///
/// Returns the envelope and the total bytes consumed (prefix + body).
/// Oversized length prefixes are rejected before the body buffer is
/// allocated.
pub fn read_frame(r: &mut impl Read) -> Result<(Envelope, usize), FrameError> {
    let mut prefix = [0u8; 4];
    match read_full(r, &mut prefix) {
        ReadFull::Done => {}
        ReadFull::Eof { at: 0 } => return Err(FrameError::Closed),
        ReadFull::Eof { at } => return Err(FrameError::Truncated { needed: 4 - at }),
        ReadFull::Err(e) => return Err(mid_frame(e, 4)),
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let len = len as usize;
    let mut body = vec![0u8; len];
    match read_full(r, &mut body) {
        ReadFull::Done => {}
        ReadFull::Eof { at } => return Err(FrameError::Truncated { needed: len - at }),
        ReadFull::Err(e) => return Err(mid_frame(e, len)),
    }
    let env = Envelope::from_bytes(&Bytes::from(body))?;
    Ok((env, 4 + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::NodeAddr;
    use mendel_obs::{SpanId, TraceContext, TraceId};
    use std::io::Cursor;

    fn env(trace: bool) -> Envelope {
        Envelope {
            from: NodeAddr(3),
            to: NodeAddr(9),
            correlation: 0xDEAD_BEEF,
            payload: Bytes::from_static(b"anchors"),
            trace: trace.then_some(TraceContext::new(TraceId(77), SpanId(5))),
        }
    }

    #[test]
    fn round_trip_with_and_without_trace() {
        for traced in [false, true] {
            let mut wire = Vec::new();
            let wrote = write_frame(&mut wire, &env(traced)).expect("write");
            let (back, read) = read_frame(&mut Cursor::new(&wire)).expect("read");
            assert_eq!(back, env(traced));
            assert_eq!(wrote, read);
            assert_eq!(wrote, wire.len());
        }
    }

    #[test]
    fn frame_body_is_codec_bytes_verbatim() {
        for traced in [false, true] {
            let e = env(traced);
            let mut wire = Vec::new();
            write_frame(&mut wire, &e).expect("write");
            let mut codec_bytes = BytesMut::new();
            e.encode(&mut codec_bytes);
            assert_eq!(&wire[..4], (codec_bytes.len() as u32).to_le_bytes());
            assert_eq!(&wire[4..], &codec_bytes[..]);
        }
    }

    #[test]
    fn oversized_prefix_rejected_without_body() {
        let wire = (MAX_FRAME + 1).to_le_bytes();
        match read_frame(&mut Cursor::new(&wire[..])) {
            Err(FrameError::Oversized(len)) => assert_eq!(len, MAX_FRAME + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_closed_partial_is_truncated() {
        assert!(matches!(
            read_frame(&mut Cursor::new(&[][..])),
            Err(FrameError::Closed)
        ));
        let mut wire = Vec::new();
        write_frame(&mut wire, &env(false)).expect("write");
        wire.truncate(wire.len() - 2);
        assert!(matches!(
            read_frame(&mut Cursor::new(&wire)),
            Err(FrameError::Truncated { needed: 2 })
        ));
        assert!(matches!(
            read_frame(&mut Cursor::new(&wire[..3])),
            Err(FrameError::Truncated { needed: 1 })
        ));
    }

    #[test]
    fn magic_round_trip_and_mismatch() {
        let mut wire = Vec::new();
        write_magic(&mut wire).expect("write");
        read_magic(&mut Cursor::new(&wire)).expect("good magic");
        assert!(matches!(
            read_magic(&mut Cursor::new(b"HTTP")),
            Err(FrameError::BadMagic(_))
        ));
        assert!(matches!(
            read_magic(&mut Cursor::new(&[][..])),
            Err(FrameError::Closed)
        ));
    }
}
