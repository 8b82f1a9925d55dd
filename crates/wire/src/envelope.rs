//! Request/response envelopes with correlation ids.
//!
//! The network simulator delivers opaque byte payloads; an [`Envelope`] adds
//! the correlation id that lets a party match a [`Response`] to the
//! [`Message`] it sent, and a direction discriminator so one byte stream can
//! carry both.

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{
    decode_message, decode_response, encode_message_into, encode_response_into, CodecKind,
};
use crate::error::WireError;
use crate::messages::{Message, Response};

/// Correlation id matching responses to requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CorrId(pub u64);

/// A framed request or response travelling over the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// A party → cloud request.
    Request {
        /// Correlation id chosen by the sender.
        corr: CorrId,
        /// The request body.
        msg: Message,
    },
    /// A cloud → party response or unsolicited push.
    Response {
        /// Correlation id of the request being answered; pushes use
        /// `CorrId(0)`.
        corr: CorrId,
        /// The response body.
        rsp: Response,
    },
}

const DIR_REQUEST: u8 = 0x01;
const DIR_RESPONSE: u8 = 0x02;

impl Envelope {
    /// Correlation id of the envelope.
    pub fn corr(&self) -> CorrId {
        match self {
            Envelope::Request { corr, .. } | Envelope::Response { corr, .. } => *corr,
        }
    }

    /// Wraps a push (unsolicited response) with the conventional zero
    /// correlation id.
    pub fn push(rsp: Response) -> Self {
        Envelope::Response {
            corr: CorrId(0),
            rsp,
        }
    }

    /// Whether the envelope is an unsolicited push.
    pub fn is_push(&self) -> bool {
        matches!(
            self,
            Envelope::Response {
                corr: CorrId(0),
                ..
            }
        )
    }

    /// Serializes the envelope in the classic format: direction byte,
    /// big-endian correlation id, then the body, all written into one
    /// buffer.
    pub fn encode(&self) -> Bytes {
        // Header plus the body capacity the standalone encoders reserve.
        let mut buf = BytesMut::with_capacity(match self {
            Envelope::Request { .. } => 9 + 64,
            Envelope::Response { .. } => 9 + 32,
        });
        match self {
            Envelope::Request { corr, msg } => {
                buf.put_u8(DIR_REQUEST);
                buf.put_u64(corr.0);
                encode_message_into(&mut buf, msg);
            }
            Envelope::Response { corr, rsp } => {
                buf.put_u8(DIR_RESPONSE);
                buf.put_u64(corr.0);
                encode_response_into(&mut buf, rsp);
            }
        }
        buf.freeze()
    }

    /// Deserializes an envelope.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the frame is malformed.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < 9 {
            return Err(WireError::Truncated {
                context: "Envelope header",
            });
        }
        let dir = bytes[0];
        let Ok(corr_bytes) = <[u8; 8]>::try_from(&bytes[1..9]) else {
            return Err(WireError::Truncated {
                context: "Envelope header",
            });
        };
        let corr = CorrId(u64::from_be_bytes(corr_bytes));
        let body = &bytes[9..];
        match dir {
            DIR_REQUEST => Ok(Envelope::Request {
                corr,
                msg: decode_message(body)?,
            }),
            DIR_RESPONSE => Ok(Envelope::Response {
                corr,
                rsp: decode_response(body)?,
            }),
            tag => Err(WireError::UnknownTag {
                context: "Envelope direction",
                tag,
            }),
        }
    }

    /// Serializes the envelope with the given codec.
    ///
    /// `CodecKind::Classic` produces the same bytes as [`Envelope::encode`].
    pub fn encode_with(&self, kind: CodecKind) -> Bytes {
        kind.codec().encode_envelope(self)
    }

    /// Deserializes an envelope with the given codec.
    ///
    /// Zero-copy codecs borrow string fields from `bytes`, so the caller
    /// hands over the shared buffer rather than a plain slice.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the frame is malformed for that codec.
    pub fn decode_with(kind: CodecKind, bytes: &Bytes) -> Result<Self, WireError> {
        kind.codec().decode_envelope(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DevId, MacAddr};
    use crate::messages::Message;

    fn dev_id() -> DevId {
        DevId::Mac(MacAddr::new([9, 8, 7, 6, 5, 4]))
    }

    #[test]
    fn request_roundtrip() {
        let env = Envelope::Request {
            corr: CorrId(77),
            msg: Message::QueryShadow { dev_id: dev_id() },
        };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
        assert_eq!(env.corr(), CorrId(77));
        assert!(!env.is_push());
    }

    #[test]
    fn response_roundtrip_and_push() {
        let env = Envelope::push(Response::BindingRevoked);
        assert!(env.is_push());
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);

        let answered = Envelope::Response {
            corr: CorrId(3),
            rsp: Response::Unbound,
        };
        assert!(!answered.is_push());
        assert_eq!(Envelope::decode(&answered.encode()).unwrap(), answered);
    }

    #[test]
    fn encode_with_dispatches_per_codec() {
        let env = Envelope::Request {
            corr: CorrId(12),
            msg: Message::QueryShadow { dev_id: dev_id() },
        };
        // Classic via the trait is byte-identical to the inherent encoding.
        assert_eq!(env.encode_with(CodecKind::Classic), env.encode());
        for kind in CodecKind::ALL {
            let bytes = env.encode_with(kind);
            assert_eq!(Envelope::decode_with(kind, &bytes).unwrap(), env);
        }
    }

    #[test]
    fn short_frames_fail_cleanly() {
        for len in 0..9 {
            let buf = vec![DIR_REQUEST; len];
            assert!(Envelope::decode(&buf).is_err());
        }
    }

    #[test]
    fn unknown_direction_fails() {
        let mut buf = vec![0x55];
        buf.extend_from_slice(&0u64.to_be_bytes());
        assert!(matches!(
            Envelope::decode(&buf),
            Err(WireError::UnknownTag {
                context: "Envelope direction",
                tag: 0x55
            })
        ));
    }
}
