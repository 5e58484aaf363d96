//! The unit of carriage: an addressed, correlated, byte-encoded
//! [`Envelope`], its wire format, and the typed receive failure every
//! [`crate::Transport`] reports. Payloads are pre-encoded
//! [`bytes::Bytes`] — nodes exchange *bytes*, not references, whether
//! the envelope is handed over in process or framed onto a socket.

use crate::codec::{Decode, DecodeError, Encode, MAX_LEN};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mendel_obs::{SpanId, TraceContext, TraceId};

/// Address of a node (or client endpoint) on a carrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeAddr(pub u16);

impl std::fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// One delivered message: source, destination, correlation id, payload,
/// and (optionally) the causal trace context it travels under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender address.
    pub from: NodeAddr,
    /// Destination address.
    pub to: NodeAddr,
    /// Correlation id linking requests to responses.
    pub correlation: u64,
    /// Encoded message body.
    pub payload: Bytes,
    /// Causal context (trace id + parent span) this message carries
    /// across the node boundary; `None` for untraced traffic.
    pub trace: Option<TraceContext>,
}

/// Wire format: `from:u16 · to:u16 · correlation:u64 · len:u32 ·
/// payload`, optionally followed by a trace tail `tag:u8 · trace:u64 ·
/// parent:u64` where the tag doubles as the Dapper-style sampling flag
/// (`1` = sampled, `2` = traced-but-unsampled). An untraced envelope
/// writes **no** tail, so its bytes are identical to the pre-tracing
/// format; the decoder treats an exhausted buffer after the payload as
/// "no trace context", which is how old frames stay decodable (and old
/// decoders never see a tail from untraced senders). A sampled tail is
/// byte-identical to the pre-sampling-flag tail (tag `1`), so traced
/// frames from older peers decode as sampled — the only behavior they
/// could have meant.
impl Encode for Envelope {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16_le(self.from.0);
        buf.put_u16_le(self.to.0);
        buf.put_u64_le(self.correlation);
        debug_assert!((self.payload.len() as u64) <= MAX_LEN);
        buf.put_u32_le(self.payload.len() as u32);
        buf.put_slice(&self.payload);
        if let Some(ctx) = &self.trace {
            buf.put_u8(if ctx.sampled { 1 } else { 2 });
            buf.put_u64_le(ctx.trace.0);
            buf.put_u64_le(ctx.parent.0);
        }
    }

    fn encoded_len(&self) -> usize {
        2 + 2 + 8 + 4 + self.payload.len() + if self.trace.is_some() { 17 } else { 0 }
    }
}

impl Decode for Envelope {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        let from = NodeAddr(u16::decode(buf)?);
        let to = NodeAddr(u16::decode(buf)?);
        let correlation = u64::decode(buf)?;
        let len = u32::decode(buf)? as u64;
        if len > MAX_LEN {
            return Err(DecodeError::LengthOverflow(len));
        }
        let len = len as usize;
        if buf.remaining() < len {
            return Err(DecodeError::UnexpectedEof {
                needed: len,
                remaining: buf.remaining(),
            });
        }
        let payload = buf.copy_to_bytes(len);
        let trace = if buf.is_empty() {
            None
        } else {
            match u8::decode(buf)? {
                tag @ (1 | 2) => Some(TraceContext {
                    trace: TraceId(u64::decode(buf)?),
                    parent: SpanId(u64::decode(buf)?),
                    sampled: tag == 1,
                }),
                t => return Err(DecodeError::BadTag(t)),
            }
        };
        Ok(Envelope {
            from,
            to,
            correlation,
            payload,
            trace,
        })
    }
}

/// Errors returned by [`crate::Transport::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The timeout elapsed with no message.
    Timeout,
    /// The carrier shut down while waiting.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "network disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_codec_roundtrips_with_and_without_trace() {
        let base = Envelope {
            from: NodeAddr(3),
            to: NodeAddr(7),
            correlation: 0xDEAD_BEEF,
            payload: Bytes::from_static(b"payload"),
            trace: None,
        };
        let bytes = base.to_bytes();
        assert_eq!(bytes.len(), base.encoded_len());
        assert_eq!(Envelope::from_bytes(&bytes).unwrap(), base);
        let traced = Envelope {
            trace: Some(TraceContext::new(TraceId(11), SpanId(12))),
            ..base.clone()
        };
        let tbytes = traced.to_bytes();
        assert_eq!(tbytes.len(), traced.encoded_len());
        assert_eq!(tbytes.len(), bytes.len() + 17);
        assert_eq!(Envelope::from_bytes(&tbytes).unwrap(), traced);
        // The untraced encoding is exactly the legacy frame: the traced
        // one is a pure suffix extension.
        assert_eq!(&tbytes[..bytes.len()], &bytes[..]);
        // A sampled tail carries tag 1 — byte-identical to the
        // pre-sampling-flag encoding; unsampled flips only that byte.
        assert_eq!(tbytes[bytes.len()], 1);
        let unsampled = Envelope {
            trace: Some(TraceContext {
                sampled: false,
                ..TraceContext::new(TraceId(11), SpanId(12))
            }),
            ..base.clone()
        };
        let ubytes = unsampled.to_bytes();
        assert_eq!(ubytes.len(), tbytes.len());
        assert_eq!(ubytes[bytes.len()], 2);
        assert_eq!(&ubytes[..bytes.len()], &tbytes[..bytes.len()]);
        assert_eq!(&ubytes[bytes.len() + 1..], &tbytes[bytes.len() + 1..]);
        assert_eq!(Envelope::from_bytes(&ubytes).unwrap(), unsampled);
    }

    #[test]
    fn envelope_decode_rejects_bad_trace_tag_and_short_payload() {
        let env = Envelope {
            from: NodeAddr(1),
            to: NodeAddr(2),
            correlation: 5,
            payload: Bytes::from_static(b"xy"),
            trace: None,
        };
        let mut raw = BytesMut::new();
        env.encode(&mut raw);
        raw.put_u8(9); // invalid trace tag
        assert_eq!(
            Envelope::from_bytes(&raw.freeze()),
            Err(DecodeError::BadTag(9))
        );
        let bytes = env.to_bytes();
        let truncated = bytes.slice(0..bytes.len() - 1);
        assert!(matches!(
            Envelope::from_bytes(&truncated),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }
}
