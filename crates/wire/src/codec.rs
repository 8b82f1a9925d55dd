//! Wire codecs: the object-safe [`Codec`] trait, the self-describing
//! big-endian [`ClassicCodec`], and the [`CodecKind`] selector.
//!
//! The experiments forge messages at the byte level — the same vantage point
//! the paper's authors had with a MITM proxy, Postman, and raw OpenSSL
//! sockets — so the codecs are real serializers, not facades over `serde`.
//! Two formats coexist behind the trait (byte-level layouts in
//! `WIRE-FORMAT.md` at the repository root):
//!
//! * [`ClassicCodec`] — the original format, and the default everywhere:
//!   one tag byte per enum variant, big-endian fixed-width integers,
//!   `u16`-length-prefixed strings, `u16` element counts. Its output is
//!   pinned by hex goldens: it never drifts.
//! * [`CompactCodec`](crate::compact::CompactCodec) — varint/TLV framing
//!   with a zero-copy decode path (decoded strings borrow the packet
//!   buffer).
//!
//! The free functions [`encode_message`] / [`decode_message`] /
//! [`encode_response`] / [`decode_response`] *are* the classic format;
//! [`ClassicCodec`] forwards to them, so pre-trait call sites and the trait
//! produce identical bytes. [`encode_message_into`] /
//! [`encode_response_into`] append the same bytes to a caller's buffer, so
//! `Envelope::encode` writes header and body into one allocation. All decoders reject trailing bytes, unknown
//! tags, and out-of-range lengths with precise [`WireError`]s.
//!
//! # Example
//!
//! ```rust
//! use rb_wire::codec::{Codec, CodecKind};
//! use rb_wire::envelope::{CorrId, Envelope};
//! use rb_wire::ids::{DevId, MacAddr};
//! use rb_wire::messages::{BindPayload, Message};
//! use rb_wire::tokens::UserToken;
//!
//! # fn main() -> Result<(), rb_wire::WireError> {
//! let env = Envelope::Request {
//!     corr: CorrId(7),
//!     msg: Message::Bind(BindPayload::AclApp {
//!         dev_id: DevId::Mac(MacAddr::new([0x94, 0x10, 0x3e, 1, 2, 3])),
//!         user_token: UserToken::from_entropy(42),
//!     }),
//! };
//! // Every codec round-trips every envelope; the wire bytes differ.
//! for kind in CodecKind::ALL {
//!     let codec: &dyn Codec = kind.codec();
//!     let bytes = codec.encode_envelope(&env);
//!     assert_eq!(codec.decode_envelope(&bytes)?, env);
//! }
//! assert!(CodecKind::default() == CodecKind::Classic);
//! # Ok(())
//! # }
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::envelope::Envelope;

use crate::error::WireError;
use crate::ids::{DevId, MacAddr};
use crate::messages::{
    AutomationRule, BindPayload, ControlAction, DenyReason, DeviceAttributes, Message, Response,
    StatusAuth, StatusKind, StatusPayload, UnbindPayload,
};
use crate::telemetry::{RuleTrigger, ScheduleEntry, TelemetryFrame};
use crate::tokens::{BindToken, DevToken, SessionToken, UserId, UserPw, UserToken};

/// Maximum accepted string length on the wire.
pub const MAX_STR: usize = 1024;
/// Maximum accepted sequence length on the wire.
pub const MAX_SEQ: usize = 4096;

// ---------------------------------------------------------------------------
// The pluggable codec abstraction.
// ---------------------------------------------------------------------------

/// An object-safe wire codec: encode/decode for the three framed value
/// kinds ([`Envelope`], [`Message`], [`Response`]).
///
/// Implementations are stateless unit structs, so a codec is selected once
/// (per agent, or for a whole simulated world via
/// `WorldBuilder::with_codec`) and shared as a `&'static dyn Codec`.
/// Decoders take [`Bytes`] rather than `&[u8]` so a zero-copy
/// implementation can return values that borrow the packet buffer — a
/// refcount bump instead of a per-field allocation.
///
/// Both built-in codecs satisfy, for every value `v`:
/// `decode(encode(v)) == Ok(v)` (the cross-codec property tests pin this),
/// and reject malformed input with a [`WireError`] instead of panicking.
pub trait Codec: Send + Sync {
    /// Short stable name for reports, traces, and CLI flags.
    fn name(&self) -> &'static str;

    /// Serializes a [`Message`].
    fn encode_message(&self, msg: &Message) -> Bytes;

    /// Deserializes a [`Message`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, unknown tags, invalid UTF-8,
    /// out-of-range values, or trailing bytes.
    fn decode_message(&self, bytes: &Bytes) -> Result<Message, WireError>;

    /// Serializes a [`Response`].
    fn encode_response(&self, rsp: &Response) -> Bytes;

    /// Deserializes a [`Response`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the frame is malformed.
    fn decode_response(&self, bytes: &Bytes) -> Result<Response, WireError>;

    /// Serializes an [`Envelope`] (direction + correlation id + body).
    fn encode_envelope(&self, env: &Envelope) -> Bytes;

    /// Deserializes an [`Envelope`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the frame is malformed.
    fn decode_envelope(&self, bytes: &Bytes) -> Result<Envelope, WireError>;
}

/// The original self-describing big-endian format (see `WIRE-FORMAT.md`
/// §2): one tag byte per enum variant, fixed-width integers, `u16`
/// length-prefixed strings. The default codec; its byte output is pinned
/// by committed hex goldens and must never change.
///
/// ```rust
/// use rb_wire::codec::{ClassicCodec, Codec, encode_message};
/// use rb_wire::messages::Message;
/// use rb_wire::tokens::{UserId, UserPw};
///
/// let msg = Message::Login {
///     user_id: UserId::new("alice@example.com"),
///     user_pw: UserPw::new("s3cret"),
/// };
/// // The trait and the pre-trait free functions agree byte for byte.
/// let via_trait = ClassicCodec.encode_message(&msg);
/// assert_eq!(via_trait, encode_message(&msg));
/// assert_eq!(ClassicCodec.decode_message(&via_trait), Ok(msg));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClassicCodec;

impl Codec for ClassicCodec {
    fn name(&self) -> &'static str {
        "classic"
    }

    fn encode_message(&self, msg: &Message) -> Bytes {
        encode_message(msg)
    }

    fn decode_message(&self, bytes: &Bytes) -> Result<Message, WireError> {
        decode_message(bytes)
    }

    fn encode_response(&self, rsp: &Response) -> Bytes {
        encode_response(rsp)
    }

    fn decode_response(&self, bytes: &Bytes) -> Result<Response, WireError> {
        decode_response(bytes)
    }

    fn encode_envelope(&self, env: &Envelope) -> Bytes {
        env.encode()
    }

    fn decode_envelope(&self, bytes: &Bytes) -> Result<Envelope, WireError> {
        Envelope::decode(bytes)
    }
}

/// Selects one of the built-in codecs. `Copy`, so it threads through
/// configuration structs ([`Default`] is [`CodecKind::Classic`]); call
/// [`CodecKind::codec`] at the byte boundary to get the implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// The pinned self-describing big-endian format ([`ClassicCodec`]).
    #[default]
    Classic,
    /// The varint/TLV zero-copy format
    /// ([`CompactCodec`](crate::compact::CompactCodec)).
    Compact,
}

impl CodecKind {
    /// Every built-in codec, for sweeps and cross-codec tests.
    pub const ALL: [CodecKind; 2] = [CodecKind::Classic, CodecKind::Compact];

    /// The codec implementation.
    pub fn codec(self) -> &'static dyn Codec {
        match self {
            CodecKind::Classic => &ClassicCodec,
            CodecKind::Compact => &crate::compact::CompactCodec,
        }
    }

    /// Stable name (`"classic"` / `"compact"`), matching
    /// [`Codec::name`].
    pub fn name(self) -> &'static str {
        self.codec().name()
    }

    /// Parses a [`CodecKind::name`] back (CLI flags, config files).
    pub fn from_name(name: &str) -> Option<CodecKind> {
        CodecKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Low-level reader with context-carrying errors.
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        if self.buf.remaining() < 1 {
            return Err(WireError::Truncated { context });
        }
        Ok(self.buf.get_u8())
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        if self.buf.remaining() < 2 {
            return Err(WireError::Truncated { context });
        }
        Ok(self.buf.get_u16())
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        if self.buf.remaining() < 4 {
            return Err(WireError::Truncated { context });
        }
        Ok(self.buf.get_u32())
    }

    fn i32(&mut self, context: &'static str) -> Result<i32, WireError> {
        Ok(self.u32(context)? as i32)
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        if self.buf.remaining() < 8 {
            return Err(WireError::Truncated { context });
        }
        Ok(self.buf.get_u64())
    }

    fn u128(&mut self, context: &'static str) -> Result<u128, WireError> {
        if self.buf.remaining() < 16 {
            return Err(WireError::Truncated { context });
        }
        Ok(self.buf.get_u128())
    }

    fn bool(&mut self, context: &'static str) -> Result<bool, WireError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { context, tag }),
        }
    }

    fn bytes16(&mut self, context: &'static str) -> Result<[u8; 16], WireError> {
        if self.buf.remaining() < 16 {
            return Err(WireError::Truncated { context });
        }
        let mut out = [0u8; 16];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }

    fn string(&mut self, context: &'static str) -> Result<String, WireError> {
        let len = self.u16(context)? as usize;
        if len > MAX_STR {
            return Err(WireError::LengthOutOfRange {
                context,
                len,
                max: MAX_STR,
            });
        }
        if self.buf.remaining() < len {
            return Err(WireError::Truncated { context });
        }
        let raw = self.buf.copy_to_bytes(len);
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8 { context })
    }

    fn seq_len(&mut self, context: &'static str) -> Result<usize, WireError> {
        let len = self.u16(context)? as usize;
        if len > MAX_SEQ {
            return Err(WireError::LengthOutOfRange {
                context,
                len,
                max: MAX_SEQ,
            });
        }
        Ok(len)
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(MAX_STR);
    buf.put_u16(len as u16);
    buf.put_slice(&bytes[..len]);
}

// ---------------------------------------------------------------------------
// DevId
// ---------------------------------------------------------------------------

pub(crate) const DEVID_MAC: u8 = 0x01;
pub(crate) const DEVID_SERIAL: u8 = 0x02;
pub(crate) const DEVID_DIGITS: u8 = 0x03;
pub(crate) const DEVID_UUID: u8 = 0x04;

fn put_dev_id(buf: &mut BytesMut, id: &DevId) {
    match id {
        DevId::Mac(mac) => {
            buf.put_u8(DEVID_MAC);
            buf.put_slice(&mac.octets());
        }
        DevId::Serial { vendor, seq } => {
            buf.put_u8(DEVID_SERIAL);
            buf.put_u16(*vendor);
            buf.put_u64(*seq);
        }
        DevId::Digits { value, width } => {
            buf.put_u8(DEVID_DIGITS);
            buf.put_u32(*value);
            buf.put_u8(*width);
        }
        DevId::Uuid(u) => {
            buf.put_u8(DEVID_UUID);
            buf.put_u128(*u);
        }
    }
}

fn get_dev_id(r: &mut Reader<'_>) -> Result<DevId, WireError> {
    match r.u8("DevId tag")? {
        DEVID_MAC => {
            if r.remaining() < 6 {
                return Err(WireError::Truncated {
                    context: "DevId::Mac",
                });
            }
            let mut o = [0u8; 6];
            for b in &mut o {
                *b = r.u8("DevId::Mac")?;
            }
            Ok(DevId::Mac(MacAddr::new(o)))
        }
        DEVID_SERIAL => Ok(DevId::Serial {
            vendor: r.u16("DevId::Serial vendor")?,
            seq: r.u64("DevId::Serial seq")?,
        }),
        DEVID_DIGITS => {
            let id = DevId::Digits {
                value: r.u32("DevId::Digits value")?,
                width: r.u8("DevId::Digits width")?,
            };
            id.validate()?;
            Ok(id)
        }
        DEVID_UUID => Ok(DevId::Uuid(r.u128("DevId::Uuid")?)),
        tag => Err(WireError::UnknownTag {
            context: "DevId",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// StatusAuth / StatusPayload
// ---------------------------------------------------------------------------

pub(crate) const AUTH_DEVTOKEN: u8 = 0x01;
pub(crate) const AUTH_DEVID: u8 = 0x02;
pub(crate) const AUTH_PUBKEY: u8 = 0x03;

fn put_status_auth(buf: &mut BytesMut, auth: &StatusAuth) {
    match auth {
        StatusAuth::DevToken(t) => {
            buf.put_u8(AUTH_DEVTOKEN);
            buf.put_slice(t.as_bytes());
        }
        StatusAuth::DevId(id) => {
            buf.put_u8(AUTH_DEVID);
            put_dev_id(buf, id);
        }
        StatusAuth::PublicKey { key_id, signature } => {
            buf.put_u8(AUTH_PUBKEY);
            buf.put_u64(*key_id);
            buf.put_u128(*signature);
        }
    }
}

fn get_status_auth(r: &mut Reader<'_>) -> Result<StatusAuth, WireError> {
    match r.u8("StatusAuth tag")? {
        AUTH_DEVTOKEN => Ok(StatusAuth::DevToken(DevToken::from_bytes(
            r.bytes16("DevToken")?,
        ))),
        AUTH_DEVID => Ok(StatusAuth::DevId(get_dev_id(r)?)),
        AUTH_PUBKEY => Ok(StatusAuth::PublicKey {
            key_id: r.u64("PublicKey key_id")?,
            signature: r.u128("PublicKey signature")?,
        }),
        tag => Err(WireError::UnknownTag {
            context: "StatusAuth",
            tag,
        }),
    }
}

pub(crate) const TEL_POWER: u8 = 0x01;
pub(crate) const TEL_TEMP: u8 = 0x02;
pub(crate) const TEL_SWITCH: u8 = 0x03;
pub(crate) const TEL_BRIGHT: u8 = 0x04;
pub(crate) const TEL_LOCK: u8 = 0x05;
pub(crate) const TEL_MOTION: u8 = 0x06;
pub(crate) const TEL_ALARM: u8 = 0x07;

fn put_telemetry(buf: &mut BytesMut, t: &TelemetryFrame) {
    match t {
        TelemetryFrame::PowerMilliwatts(mw) => {
            buf.put_u8(TEL_POWER);
            buf.put_u64(*mw);
        }
        TelemetryFrame::TemperatureMilliC(c) => {
            buf.put_u8(TEL_TEMP);
            buf.put_u32(*c as u32);
        }
        TelemetryFrame::SwitchState { on } => {
            buf.put_u8(TEL_SWITCH);
            buf.put_u8(u8::from(*on));
        }
        TelemetryFrame::Brightness(b) => {
            buf.put_u8(TEL_BRIGHT);
            buf.put_u8(*b);
        }
        TelemetryFrame::LockEvent { locked, at_tick } => {
            buf.put_u8(TEL_LOCK);
            buf.put_u8(u8::from(*locked));
            buf.put_u64(*at_tick);
        }
        TelemetryFrame::Motion { confidence } => {
            buf.put_u8(TEL_MOTION);
            buf.put_u8(*confidence);
        }
        TelemetryFrame::Alarm { triggered } => {
            buf.put_u8(TEL_ALARM);
            buf.put_u8(u8::from(*triggered));
        }
    }
}

fn get_telemetry(r: &mut Reader<'_>) -> Result<TelemetryFrame, WireError> {
    match r.u8("TelemetryFrame tag")? {
        TEL_POWER => Ok(TelemetryFrame::PowerMilliwatts(r.u64("Power")?)),
        TEL_TEMP => Ok(TelemetryFrame::TemperatureMilliC(r.i32("Temperature")?)),
        TEL_SWITCH => Ok(TelemetryFrame::SwitchState {
            on: r.bool("SwitchState")?,
        }),
        TEL_BRIGHT => Ok(TelemetryFrame::Brightness(r.u8("Brightness")?)),
        TEL_LOCK => Ok(TelemetryFrame::LockEvent {
            locked: r.bool("LockEvent locked")?,
            at_tick: r.u64("LockEvent at_tick")?,
        }),
        TEL_MOTION => Ok(TelemetryFrame::Motion {
            confidence: r.u8("Motion")?,
        }),
        TEL_ALARM => Ok(TelemetryFrame::Alarm {
            triggered: r.bool("Alarm")?,
        }),
        tag => Err(WireError::UnknownTag {
            context: "TelemetryFrame",
            tag,
        }),
    }
}

fn put_option_session(buf: &mut BytesMut, s: &Option<SessionToken>) {
    match s {
        None => buf.put_u8(0),
        Some(t) => {
            buf.put_u8(1);
            buf.put_slice(t.as_bytes());
        }
    }
}

fn get_option_session(r: &mut Reader<'_>) -> Result<Option<SessionToken>, WireError> {
    if r.bool("Option<SessionToken>")? {
        Ok(Some(SessionToken::from_bytes(r.bytes16("SessionToken")?)))
    } else {
        Ok(None)
    }
}

fn put_status(buf: &mut BytesMut, s: &StatusPayload) {
    put_status_auth(buf, &s.auth);
    put_dev_id(buf, &s.dev_id);
    buf.put_u8(match s.kind {
        StatusKind::Register => 0,
        StatusKind::Heartbeat => 1,
    });
    put_string(buf, &s.attributes.model);
    put_string(buf, &s.attributes.firmware);
    put_option_session(buf, &s.session);
    buf.put_u16(s.telemetry.len().min(MAX_SEQ) as u16);
    for t in s.telemetry.iter().take(MAX_SEQ) {
        put_telemetry(buf, t);
    }
    buf.put_u8(u8::from(s.button_pressed));
}

fn get_status(r: &mut Reader<'_>) -> Result<StatusPayload, WireError> {
    let auth = get_status_auth(r)?;
    let dev_id = get_dev_id(r)?;
    let kind = match r.u8("StatusKind")? {
        0 => StatusKind::Register,
        1 => StatusKind::Heartbeat,
        tag => {
            return Err(WireError::UnknownTag {
                context: "StatusKind",
                tag,
            })
        }
    };
    let model = r.string("attributes.model")?;
    let firmware = r.string("attributes.firmware")?;
    let session = get_option_session(r)?;
    let n = r.seq_len("telemetry")?;
    let mut telemetry = Vec::with_capacity(n);
    for _ in 0..n {
        telemetry.push(get_telemetry(r)?);
    }
    let button_pressed = r.bool("button_pressed")?;
    Ok(StatusPayload {
        auth,
        dev_id,
        kind,
        attributes: DeviceAttributes::new(model, firmware),
        session,
        telemetry,
        button_pressed,
    })
}

// ---------------------------------------------------------------------------
// Bind / Unbind / Control
// ---------------------------------------------------------------------------

pub(crate) const BIND_ACL_APP: u8 = 0x01;
pub(crate) const BIND_ACL_DEVICE: u8 = 0x02;
pub(crate) const BIND_CAPABILITY: u8 = 0x03;

fn put_bind(buf: &mut BytesMut, b: &BindPayload) {
    match b {
        BindPayload::AclApp { dev_id, user_token } => {
            buf.put_u8(BIND_ACL_APP);
            put_dev_id(buf, dev_id);
            buf.put_slice(user_token.as_bytes());
        }
        BindPayload::AclDevice {
            dev_id,
            user_id,
            user_pw,
        } => {
            buf.put_u8(BIND_ACL_DEVICE);
            put_dev_id(buf, dev_id);
            put_string(buf, user_id.as_str());
            put_string(buf, user_pw.expose());
        }
        BindPayload::Capability { bind_token } => {
            buf.put_u8(BIND_CAPABILITY);
            buf.put_slice(bind_token.as_bytes());
        }
    }
}

fn get_bind(r: &mut Reader<'_>) -> Result<BindPayload, WireError> {
    match r.u8("BindPayload tag")? {
        BIND_ACL_APP => Ok(BindPayload::AclApp {
            dev_id: get_dev_id(r)?,
            user_token: UserToken::from_bytes(r.bytes16("UserToken")?),
        }),
        BIND_ACL_DEVICE => Ok(BindPayload::AclDevice {
            dev_id: get_dev_id(r)?,
            user_id: UserId::new(r.string("UserId")?),
            user_pw: UserPw::new(r.string("UserPw")?),
        }),
        BIND_CAPABILITY => Ok(BindPayload::Capability {
            bind_token: BindToken::from_bytes(r.bytes16("BindToken")?),
        }),
        tag => Err(WireError::UnknownTag {
            context: "BindPayload",
            tag,
        }),
    }
}

pub(crate) const UNBIND_ID_TOKEN: u8 = 0x01;
pub(crate) const UNBIND_ID_ONLY: u8 = 0x02;

fn put_unbind(buf: &mut BytesMut, u: &UnbindPayload) {
    match u {
        UnbindPayload::DevIdUserToken { dev_id, user_token } => {
            buf.put_u8(UNBIND_ID_TOKEN);
            put_dev_id(buf, dev_id);
            buf.put_slice(user_token.as_bytes());
        }
        UnbindPayload::DevIdOnly { dev_id } => {
            buf.put_u8(UNBIND_ID_ONLY);
            put_dev_id(buf, dev_id);
        }
    }
}

fn get_unbind(r: &mut Reader<'_>) -> Result<UnbindPayload, WireError> {
    match r.u8("UnbindPayload tag")? {
        UNBIND_ID_TOKEN => Ok(UnbindPayload::DevIdUserToken {
            dev_id: get_dev_id(r)?,
            user_token: UserToken::from_bytes(r.bytes16("UserToken")?),
        }),
        UNBIND_ID_ONLY => Ok(UnbindPayload::DevIdOnly {
            dev_id: get_dev_id(r)?,
        }),
        tag => Err(WireError::UnknownTag {
            context: "UnbindPayload",
            tag,
        }),
    }
}

pub(crate) const ACT_ON: u8 = 0x01;
pub(crate) const ACT_OFF: u8 = 0x02;
pub(crate) const ACT_BRIGHT: u8 = 0x03;
pub(crate) const ACT_SET_SCHED: u8 = 0x04;
pub(crate) const ACT_QUERY_SCHED: u8 = 0x05;
pub(crate) const ACT_QUERY_TEL: u8 = 0x06;

fn put_action(buf: &mut BytesMut, a: &ControlAction) {
    match a {
        ControlAction::TurnOn => buf.put_u8(ACT_ON),
        ControlAction::TurnOff => buf.put_u8(ACT_OFF),
        ControlAction::SetBrightness(b) => {
            buf.put_u8(ACT_BRIGHT);
            buf.put_u8(*b);
        }
        ControlAction::SetSchedule(e) => {
            buf.put_u8(ACT_SET_SCHED);
            buf.put_u64(e.at_tick);
            buf.put_u8(u8::from(e.turn_on));
        }
        ControlAction::QuerySchedule => buf.put_u8(ACT_QUERY_SCHED),
        ControlAction::QueryTelemetry => buf.put_u8(ACT_QUERY_TEL),
    }
}

fn get_action(r: &mut Reader<'_>) -> Result<ControlAction, WireError> {
    match r.u8("ControlAction tag")? {
        ACT_ON => Ok(ControlAction::TurnOn),
        ACT_OFF => Ok(ControlAction::TurnOff),
        ACT_BRIGHT => Ok(ControlAction::SetBrightness(r.u8("Brightness")?)),
        ACT_SET_SCHED => Ok(ControlAction::SetSchedule(ScheduleEntry {
            at_tick: r.u64("ScheduleEntry at_tick")?,
            turn_on: r.bool("ScheduleEntry turn_on")?,
        })),
        ACT_QUERY_SCHED => Ok(ControlAction::QuerySchedule),
        ACT_QUERY_TEL => Ok(ControlAction::QueryTelemetry),
        tag => Err(WireError::UnknownTag {
            context: "ControlAction",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// Message
// ---------------------------------------------------------------------------

pub(crate) const MSG_LOGIN: u8 = 0x10;
pub(crate) const MSG_REQ_DEVTOKEN: u8 = 0x11;
pub(crate) const MSG_REQ_BINDTOKEN: u8 = 0x12;
pub(crate) const MSG_STATUS: u8 = 0x13;
pub(crate) const MSG_BIND: u8 = 0x14;
pub(crate) const MSG_UNBIND: u8 = 0x15;
pub(crate) const MSG_CONTROL: u8 = 0x16;
pub(crate) const MSG_QUERY_SHADOW: u8 = 0x17;
pub(crate) const MSG_SHARE: u8 = 0x18;
pub(crate) const MSG_UNSHARE: u8 = 0x19;
pub(crate) const MSG_SET_RULE: u8 = 0x1a;

pub(crate) const TRG_TEMP_ABOVE: u8 = 0x01;
pub(crate) const TRG_TEMP_BELOW: u8 = 0x02;
pub(crate) const TRG_ALARM: u8 = 0x03;
pub(crate) const TRG_MOTION: u8 = 0x04;
pub(crate) const TRG_POWER: u8 = 0x05;

fn put_trigger(buf: &mut BytesMut, t: &RuleTrigger) {
    match t {
        RuleTrigger::TemperatureAbove(v) => {
            buf.put_u8(TRG_TEMP_ABOVE);
            buf.put_u32(*v as u32);
        }
        RuleTrigger::TemperatureBelow(v) => {
            buf.put_u8(TRG_TEMP_BELOW);
            buf.put_u32(*v as u32);
        }
        RuleTrigger::AlarmTriggered => buf.put_u8(TRG_ALARM),
        RuleTrigger::MotionAtLeast(c) => {
            buf.put_u8(TRG_MOTION);
            buf.put_u8(*c);
        }
        RuleTrigger::PowerAbove(p) => {
            buf.put_u8(TRG_POWER);
            buf.put_u64(*p);
        }
    }
}

fn get_trigger(r: &mut Reader<'_>) -> Result<RuleTrigger, WireError> {
    match r.u8("RuleTrigger tag")? {
        TRG_TEMP_ABOVE => Ok(RuleTrigger::TemperatureAbove(r.i32("TemperatureAbove")?)),
        TRG_TEMP_BELOW => Ok(RuleTrigger::TemperatureBelow(r.i32("TemperatureBelow")?)),
        TRG_ALARM => Ok(RuleTrigger::AlarmTriggered),
        TRG_MOTION => Ok(RuleTrigger::MotionAtLeast(r.u8("MotionAtLeast")?)),
        TRG_POWER => Ok(RuleTrigger::PowerAbove(r.u64("PowerAbove")?)),
        tag => Err(WireError::UnknownTag {
            context: "RuleTrigger",
            tag,
        }),
    }
}

/// Encodes a [`Message`] to bytes.
pub fn encode_message(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_message_into(&mut buf, msg);
    buf.freeze()
}

/// Appends the classic encoding of a [`Message`] to `buf`, so a frame
/// header and its body share one buffer.
pub fn encode_message_into(buf: &mut BytesMut, msg: &Message) {
    match msg {
        Message::Login { user_id, user_pw } => {
            buf.put_u8(MSG_LOGIN);
            put_string(buf, user_id.as_str());
            put_string(buf, user_pw.expose());
        }
        Message::RequestDevToken { user_token } => {
            buf.put_u8(MSG_REQ_DEVTOKEN);
            buf.put_slice(user_token.as_bytes());
        }
        Message::RequestBindToken { user_token } => {
            buf.put_u8(MSG_REQ_BINDTOKEN);
            buf.put_slice(user_token.as_bytes());
        }
        Message::Status(s) => {
            buf.put_u8(MSG_STATUS);
            put_status(buf, s);
        }
        Message::Bind(b) => {
            buf.put_u8(MSG_BIND);
            put_bind(buf, b);
        }
        Message::Unbind(u) => {
            buf.put_u8(MSG_UNBIND);
            put_unbind(buf, u);
        }
        Message::Control {
            dev_id,
            user_token,
            session,
            action,
        } => {
            buf.put_u8(MSG_CONTROL);
            put_dev_id(buf, dev_id);
            buf.put_slice(user_token.as_bytes());
            put_option_session(buf, session);
            put_action(buf, action);
        }
        Message::QueryShadow { dev_id } => {
            buf.put_u8(MSG_QUERY_SHADOW);
            put_dev_id(buf, dev_id);
        }
        Message::Share {
            dev_id,
            user_token,
            grantee,
        } => {
            buf.put_u8(MSG_SHARE);
            put_dev_id(buf, dev_id);
            buf.put_slice(user_token.as_bytes());
            put_string(buf, grantee.as_str());
        }
        Message::Unshare {
            dev_id,
            user_token,
            grantee,
        } => {
            buf.put_u8(MSG_UNSHARE);
            put_dev_id(buf, dev_id);
            buf.put_slice(user_token.as_bytes());
            put_string(buf, grantee.as_str());
        }
        Message::SetRule { user_token, rule } => {
            buf.put_u8(MSG_SET_RULE);
            buf.put_slice(user_token.as_bytes());
            put_dev_id(buf, &rule.trigger_dev);
            put_trigger(buf, &rule.trigger);
            put_dev_id(buf, &rule.action_dev);
            put_action(buf, &rule.action);
        }
    }
}

/// Decodes a [`Message`] from bytes.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown tags, invalid UTF-8,
/// out-of-range values, or trailing bytes.
pub fn decode_message(bytes: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(bytes);
    let msg = match r.u8("Message tag")? {
        MSG_LOGIN => Message::Login {
            user_id: UserId::new(r.string("UserId")?),
            user_pw: UserPw::new(r.string("UserPw")?),
        },
        MSG_REQ_DEVTOKEN => Message::RequestDevToken {
            user_token: UserToken::from_bytes(r.bytes16("UserToken")?),
        },
        MSG_REQ_BINDTOKEN => Message::RequestBindToken {
            user_token: UserToken::from_bytes(r.bytes16("UserToken")?),
        },
        MSG_STATUS => Message::Status(get_status(&mut r)?),
        MSG_BIND => Message::Bind(get_bind(&mut r)?),
        MSG_UNBIND => Message::Unbind(get_unbind(&mut r)?),
        MSG_CONTROL => Message::Control {
            dev_id: get_dev_id(&mut r)?,
            user_token: UserToken::from_bytes(r.bytes16("UserToken")?),
            session: get_option_session(&mut r)?,
            action: get_action(&mut r)?,
        },
        MSG_QUERY_SHADOW => Message::QueryShadow {
            dev_id: get_dev_id(&mut r)?,
        },
        MSG_SHARE => Message::Share {
            dev_id: get_dev_id(&mut r)?,
            user_token: UserToken::from_bytes(r.bytes16("UserToken")?),
            grantee: UserId::new(r.string("grantee")?),
        },
        MSG_UNSHARE => Message::Unshare {
            dev_id: get_dev_id(&mut r)?,
            user_token: UserToken::from_bytes(r.bytes16("UserToken")?),
            grantee: UserId::new(r.string("grantee")?),
        },
        MSG_SET_RULE => Message::SetRule {
            user_token: UserToken::from_bytes(r.bytes16("UserToken")?),
            rule: AutomationRule {
                trigger_dev: get_dev_id(&mut r)?,
                trigger: get_trigger(&mut r)?,
                action_dev: get_dev_id(&mut r)?,
                action: get_action(&mut r)?,
            },
        },
        tag => {
            return Err(WireError::UnknownTag {
                context: "Message",
                tag,
            })
        }
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Response
// ---------------------------------------------------------------------------

pub(crate) const RSP_LOGIN_OK: u8 = 0x20;
pub(crate) const RSP_DEVTOKEN: u8 = 0x21;
pub(crate) const RSP_BINDTOKEN: u8 = 0x22;
pub(crate) const RSP_STATUS_ACCEPTED: u8 = 0x23;
pub(crate) const RSP_BOUND: u8 = 0x24;
pub(crate) const RSP_UNBOUND: u8 = 0x25;
pub(crate) const RSP_CONTROL_OK: u8 = 0x26;
pub(crate) const RSP_SHADOW: u8 = 0x27;
pub(crate) const RSP_TEL_PUSH: u8 = 0x28;
pub(crate) const RSP_CTRL_PUSH: u8 = 0x29;
pub(crate) const RSP_REVOKED: u8 = 0x2a;
pub(crate) const RSP_DENIED: u8 = 0x2b;
pub(crate) const RSP_SHARE_OK: u8 = 0x2c;
pub(crate) const RSP_RULE_SET: u8 = 0x2d;

pub(crate) fn deny_to_u8(d: DenyReason) -> u8 {
    match d {
        DenyReason::UnknownUser => 13,
        DenyReason::BadCredentials => 0,
        DenyReason::InvalidUserToken => 1,
        DenyReason::DeviceAuthFailed => 2,
        DenyReason::AlreadyBound => 3,
        DenyReason::NotBoundUser => 4,
        DenyReason::NotBound => 5,
        DenyReason::InvalidBindToken => 6,
        DenyReason::BadSession => 7,
        DenyReason::OwnershipProofFailed => 8,
        DenyReason::DeviceOffline => 9,
        DenyReason::UnknownDevice => 10,
        DenyReason::UnsupportedOperation => 11,
        DenyReason::RateLimited => 12,
    }
}

pub(crate) fn deny_from_u8(v: u8) -> Result<DenyReason, WireError> {
    Ok(match v {
        0 => DenyReason::BadCredentials,
        1 => DenyReason::InvalidUserToken,
        2 => DenyReason::DeviceAuthFailed,
        3 => DenyReason::AlreadyBound,
        4 => DenyReason::NotBoundUser,
        5 => DenyReason::NotBound,
        6 => DenyReason::InvalidBindToken,
        7 => DenyReason::BadSession,
        8 => DenyReason::OwnershipProofFailed,
        9 => DenyReason::DeviceOffline,
        10 => DenyReason::UnknownDevice,
        11 => DenyReason::UnsupportedOperation,
        12 => DenyReason::RateLimited,
        13 => DenyReason::UnknownUser,
        tag => {
            return Err(WireError::UnknownTag {
                context: "DenyReason",
                tag,
            })
        }
    })
}

fn put_schedule(buf: &mut BytesMut, entries: &[ScheduleEntry]) {
    buf.put_u16(entries.len().min(MAX_SEQ) as u16);
    for e in entries.iter().take(MAX_SEQ) {
        buf.put_u64(e.at_tick);
        buf.put_u8(u8::from(e.turn_on));
    }
}

fn get_schedule(r: &mut Reader<'_>) -> Result<Vec<ScheduleEntry>, WireError> {
    let n = r.seq_len("schedule")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(ScheduleEntry {
            at_tick: r.u64("ScheduleEntry at_tick")?,
            turn_on: r.bool("ScheduleEntry turn_on")?,
        });
    }
    Ok(out)
}

fn put_telemetry_vec(buf: &mut BytesMut, tel: &[TelemetryFrame]) {
    buf.put_u16(tel.len().min(MAX_SEQ) as u16);
    for t in tel.iter().take(MAX_SEQ) {
        put_telemetry(buf, t);
    }
}

fn get_telemetry_vec(r: &mut Reader<'_>) -> Result<Vec<TelemetryFrame>, WireError> {
    let n = r.seq_len("telemetry")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_telemetry(r)?);
    }
    Ok(out)
}

/// Encodes a [`Response`] to bytes.
pub fn encode_response(rsp: &Response) -> Bytes {
    let mut buf = BytesMut::with_capacity(32);
    encode_response_into(&mut buf, rsp);
    buf.freeze()
}

/// Appends the classic encoding of a [`Response`] to `buf`, so a frame
/// header and its body share one buffer.
pub fn encode_response_into(buf: &mut BytesMut, rsp: &Response) {
    match rsp {
        Response::LoginOk { user_token } => {
            buf.put_u8(RSP_LOGIN_OK);
            buf.put_slice(user_token.as_bytes());
        }
        Response::DevTokenIssued { dev_token } => {
            buf.put_u8(RSP_DEVTOKEN);
            buf.put_slice(dev_token.as_bytes());
        }
        Response::BindTokenIssued { bind_token } => {
            buf.put_u8(RSP_BINDTOKEN);
            buf.put_slice(bind_token.as_bytes());
        }
        Response::StatusAccepted { session } => {
            buf.put_u8(RSP_STATUS_ACCEPTED);
            put_option_session(buf, session);
        }
        Response::Bound { session } => {
            buf.put_u8(RSP_BOUND);
            put_option_session(buf, session);
        }
        Response::Unbound => buf.put_u8(RSP_UNBOUND),
        Response::ControlOk {
            schedule,
            telemetry,
        } => {
            buf.put_u8(RSP_CONTROL_OK);
            put_schedule(buf, schedule);
            put_telemetry_vec(buf, telemetry);
        }
        Response::ShadowState { online, bound } => {
            buf.put_u8(RSP_SHADOW);
            buf.put_u8(u8::from(*online));
            buf.put_u8(u8::from(*bound));
        }
        Response::TelemetryPush { dev_id, telemetry } => {
            buf.put_u8(RSP_TEL_PUSH);
            put_dev_id(buf, dev_id);
            put_telemetry_vec(buf, telemetry);
        }
        Response::ControlPush { action, session } => {
            buf.put_u8(RSP_CTRL_PUSH);
            put_action(buf, action);
            put_option_session(buf, session);
        }
        Response::BindingRevoked => buf.put_u8(RSP_REVOKED),
        Response::ShareOk { session, guests } => {
            buf.put_u8(RSP_SHARE_OK);
            put_option_session(buf, session);
            buf.put_u16(*guests);
        }
        Response::RuleSet { count } => {
            buf.put_u8(RSP_RULE_SET);
            buf.put_u16(*count);
        }
        Response::Denied { reason } => {
            buf.put_u8(RSP_DENIED);
            buf.put_u8(deny_to_u8(*reason));
        }
    }
}

/// Decodes a [`Response`] from bytes.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown tags, or trailing bytes.
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(bytes);
    let rsp = match r.u8("Response tag")? {
        RSP_LOGIN_OK => Response::LoginOk {
            user_token: UserToken::from_bytes(r.bytes16("UserToken")?),
        },
        RSP_DEVTOKEN => Response::DevTokenIssued {
            dev_token: DevToken::from_bytes(r.bytes16("DevToken")?),
        },
        RSP_BINDTOKEN => Response::BindTokenIssued {
            bind_token: BindToken::from_bytes(r.bytes16("BindToken")?),
        },
        RSP_STATUS_ACCEPTED => Response::StatusAccepted {
            session: get_option_session(&mut r)?,
        },
        RSP_BOUND => Response::Bound {
            session: get_option_session(&mut r)?,
        },
        RSP_UNBOUND => Response::Unbound,
        RSP_CONTROL_OK => Response::ControlOk {
            schedule: get_schedule(&mut r)?,
            telemetry: get_telemetry_vec(&mut r)?,
        },
        RSP_SHADOW => Response::ShadowState {
            online: r.bool("ShadowState online")?,
            bound: r.bool("ShadowState bound")?,
        },
        RSP_TEL_PUSH => Response::TelemetryPush {
            dev_id: get_dev_id(&mut r)?,
            telemetry: get_telemetry_vec(&mut r)?,
        },
        RSP_CTRL_PUSH => Response::ControlPush {
            action: get_action(&mut r)?,
            session: get_option_session(&mut r)?,
        },
        RSP_REVOKED => Response::BindingRevoked,
        RSP_SHARE_OK => Response::ShareOk {
            session: get_option_session(&mut r)?,
            guests: r.u16("ShareOk guests")?,
        },
        RSP_RULE_SET => Response::RuleSet {
            count: r.u16("RuleSet count")?,
        },
        RSP_DENIED => Response::Denied {
            reason: deny_from_u8(r.u8("DenyReason")?)?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                context: "Response",
                tag,
            })
        }
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(rsp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MacAddr;
    use crate::messages::StatusPayload;

    fn sample_dev_id() -> DevId {
        DevId::Mac(MacAddr::from_oui([0xa0, 0xb1, 0xc2], 0x123456))
    }

    #[test]
    fn message_roundtrips() {
        let msgs = vec![
            Message::Login {
                user_id: UserId::new("alice@example.com"),
                user_pw: UserPw::new("s3cret"),
            },
            Message::RequestDevToken {
                user_token: UserToken::from_entropy(42),
            },
            Message::RequestBindToken {
                user_token: UserToken::from_entropy(43),
            },
            Message::Status(StatusPayload {
                auth: StatusAuth::DevToken(DevToken::from_entropy(9)),
                dev_id: sample_dev_id(),
                kind: StatusKind::Register,
                attributes: DeviceAttributes::new("HS100", "1.2.3"),
                session: Some(SessionToken::from_entropy(7)),
                telemetry: vec![
                    TelemetryFrame::PowerMilliwatts(1234),
                    TelemetryFrame::TemperatureMilliC(-2500),
                    TelemetryFrame::LockEvent {
                        locked: true,
                        at_tick: 99,
                    },
                ],
                button_pressed: true,
            }),
            Message::Bind(BindPayload::AclDevice {
                dev_id: DevId::Digits {
                    value: 123456,
                    width: 6,
                },
                user_id: UserId::new("bob"),
                user_pw: UserPw::new("pw"),
            }),
            Message::Bind(BindPayload::Capability {
                bind_token: BindToken::from_entropy(5),
            }),
            Message::Unbind(UnbindPayload::DevIdOnly {
                dev_id: DevId::Uuid(77),
            }),
            Message::Unbind(UnbindPayload::DevIdUserToken {
                dev_id: DevId::Serial {
                    vendor: 3,
                    seq: 1000,
                },
                user_token: UserToken::from_entropy(2),
            }),
            Message::Control {
                dev_id: sample_dev_id(),
                user_token: UserToken::from_entropy(1),
                session: None,
                action: ControlAction::SetSchedule(ScheduleEntry {
                    at_tick: 5,
                    turn_on: false,
                }),
            },
            Message::QueryShadow {
                dev_id: sample_dev_id(),
            },
            Message::Share {
                dev_id: sample_dev_id(),
                user_token: UserToken::from_entropy(8),
                grantee: UserId::new("guest@example.com"),
            },
            Message::Unshare {
                dev_id: sample_dev_id(),
                user_token: UserToken::from_entropy(8),
                grantee: UserId::new("guest@example.com"),
            },
            Message::SetRule {
                user_token: UserToken::from_entropy(9),
                rule: AutomationRule {
                    trigger_dev: sample_dev_id(),
                    trigger: RuleTrigger::TemperatureAbove(30_000),
                    action_dev: DevId::Digits {
                        value: 42,
                        width: 6,
                    },
                    action: ControlAction::TurnOn,
                },
            },
            Message::SetRule {
                user_token: UserToken::from_entropy(9),
                rule: AutomationRule {
                    trigger_dev: sample_dev_id(),
                    trigger: RuleTrigger::AlarmTriggered,
                    action_dev: sample_dev_id(),
                    action: ControlAction::TurnOff,
                },
            },
        ];
        for msg in msgs {
            let bytes = encode_message(&msg);
            let back = decode_message(&bytes).unwrap_or_else(|e| panic!("{msg}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn response_roundtrips() {
        let rsps = vec![
            Response::LoginOk {
                user_token: UserToken::from_entropy(1),
            },
            Response::DevTokenIssued {
                dev_token: DevToken::from_entropy(2),
            },
            Response::BindTokenIssued {
                bind_token: BindToken::from_entropy(3),
            },
            Response::StatusAccepted {
                session: Some(SessionToken::from_entropy(4)),
            },
            Response::Bound { session: None },
            Response::Unbound,
            Response::ControlOk {
                schedule: vec![ScheduleEntry {
                    at_tick: 1,
                    turn_on: true,
                }],
                telemetry: vec![TelemetryFrame::Alarm { triggered: true }],
            },
            Response::ShadowState {
                online: true,
                bound: false,
            },
            Response::TelemetryPush {
                dev_id: sample_dev_id(),
                telemetry: vec![TelemetryFrame::Motion { confidence: 80 }],
            },
            Response::ControlPush {
                action: ControlAction::TurnOn,
                session: None,
            },
            Response::BindingRevoked,
            Response::ShareOk {
                session: Some(SessionToken::from_entropy(6)),
                guests: 2,
            },
            Response::RuleSet { count: 3 },
            Response::Denied {
                reason: DenyReason::NotBoundUser,
            },
        ];
        for rsp in rsps {
            let bytes = encode_response(&rsp);
            assert_eq!(decode_response(&bytes).unwrap(), rsp);
        }
    }

    #[test]
    fn all_deny_reasons_roundtrip() {
        for v in 0..=13u8 {
            let reason = deny_from_u8(v).unwrap();
            assert_eq!(deny_to_u8(reason), v);
        }
        assert!(deny_from_u8(14).is_err());
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = encode_message(&Message::QueryShadow {
            dev_id: sample_dev_id(),
        })
        .to_vec();
        bytes.push(0xde);
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn decode_rejects_unknown_message_tag() {
        assert_eq!(
            decode_message(&[0xee]),
            Err(WireError::UnknownTag {
                context: "Message",
                tag: 0xee
            })
        );
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let full = encode_message(&Message::Status(StatusPayload::register(
            StatusAuth::DevId(sample_dev_id()),
            sample_dev_id(),
            DeviceAttributes::new("model", "fw"),
        )));
        // Every proper prefix must fail cleanly, never panic.
        for cut in 0..full.len() {
            assert!(
                decode_message(&full[..cut]).is_err(),
                "prefix of {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn decode_rejects_invalid_digit_width() {
        // Hand-craft a Digits DevId with width 12 inside a QueryShadow.
        let mut buf = vec![MSG_QUERY_SHADOW, DEVID_DIGITS];
        buf.extend_from_slice(&123u32.to_be_bytes());
        buf.push(12);
        assert_eq!(
            decode_message(&buf),
            Err(WireError::ValueOutOfRange {
                context: "DevId::Digits width"
            })
        );
    }

    #[test]
    fn decode_rejects_bad_bool() {
        // ShadowState with online = 7.
        let buf = [RSP_SHADOW, 7, 0];
        assert!(matches!(
            decode_response(&buf),
            Err(WireError::UnknownTag {
                context: "ShadowState online",
                tag: 7
            })
        ));
    }

    #[test]
    fn oversized_string_is_rejected() {
        let mut buf = vec![MSG_LOGIN];
        buf.extend_from_slice(&(MAX_STR as u16 + 1).to_be_bytes());
        assert!(matches!(
            decode_message(&buf),
            Err(WireError::LengthOutOfRange { .. })
        ));
    }

    #[test]
    fn forged_message_is_bit_identical_to_honest_one() {
        // The essence of the paper's attacks: a forged Bind with the victim's
        // DevId is indistinguishable on the wire from the app's own.
        let victim_id = sample_dev_id();
        let attacker_token = UserToken::from_entropy(0xbad);
        let honest = encode_message(&Message::Bind(BindPayload::AclApp {
            dev_id: victim_id.clone(),
            user_token: attacker_token,
        }));
        let forged = encode_message(&Message::Bind(BindPayload::AclApp {
            dev_id: victim_id,
            user_token: attacker_token,
        }));
        assert_eq!(honest, forged);
    }
}
