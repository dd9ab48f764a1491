//! The authority's wire protocol: length-prefixed frames over a byte
//! stream.
//!
//! Both directions use the same five-byte header:
//!
//! ```text
//! request:  [opcode: u8] [len: u32 LE] [payload: len bytes]
//! response: [status: u8] [len: u32 LE] [payload: len bytes]
//! ```
//!
//! Requests:
//!
//! | opcode | name          | payload                                   |
//! |-------:|---------------|-------------------------------------------|
//! | `0x01` | `VERIFY`      | a [`SignedClaim`] artifact (`Artifact::to_bytes`) |
//! | `0x02` | `STATS`       | empty — response payload is the metrics JSON |
//! | `0x03` | —             | retired (the v3 runtime batching switch), never reassigned: decodes as [`ProtocolError::UnknownOpcode`] |
//! | `0x04` | `SHUTDOWN`    | empty — asks the server to drain and exit |
//! | `0x05` | `ROOT`        | empty — response payload is a `LedgerRoot` artifact |
//! | `0x06` | `PROVE_MEMBER`| a 64-byte registry leaf encoding — response payload is a `MembershipProof` artifact |
//! | `0x07` | `CONSISTENCY` | eight bytes, `u64` LE old tree size — response payload is a `ConsistencyProof` artifact |
//!
//! Responses carry a [`Status`] byte; error statuses put a human-readable
//! UTF-8 message in the payload. Frames above [`MAX_FRAME_LEN`] are
//! rejected without allocating. Decoding is total: any byte sequence
//! produces either a request/response or a typed [`ProtocolError`] — never
//! a panic — so a malformed client can't take a worker down with it.
//!
//! One response can arrive *unsolicited*: a saturated server sheds a
//! fresh connection by sending a [`Status::Busy`] frame and closing, so a
//! client may read `Busy` in answer to whatever request it pipelined
//! first. `Busy` never reports on the request itself — retrying on a new
//! connection after a backoff is always correct.
//!
//! [`SignedClaim`]: zkrownn::SignedClaim

use std::io::{self, Read, Write};

/// Hard ceiling on a frame payload (16 MiB) — comfortably above any
/// quick/paper-scale claim, far below an allocation-bomb length.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Bytes in a frame header: one opcode/status byte plus a `u32` length.
pub const HEADER_LEN: usize = 5;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Verify a [`zkrownn::SignedClaim`] (payload = artifact bytes).
    Verify = 0x01,
    /// Fetch the metrics snapshot as JSON.
    Stats = 0x02,
    // 0x03 was the v3 runtime batching switch; retired, never reassigned
    /// Graceful shutdown: stop accepting, drain in-flight work, exit.
    Shutdown = 0x04,
    /// Fetch the current registry-ledger head (a `LedgerRoot` artifact).
    Root = 0x05,
    /// Prove a `(circuit, statement)` leaf is in the ledger (payload = the
    /// 64-byte leaf encoding; response = a `MembershipProof` artifact).
    ProveMember = 0x06,
    /// Prove the ledger at an earlier size is a prefix of the current one
    /// (payload = `u64` LE old size; response = a `ConsistencyProof`
    /// artifact).
    Consistency = 0x07,
}

impl Opcode {
    /// Decodes an opcode byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0x01 => Some(Self::Verify),
            0x02 => Some(Self::Stats),
            0x04 => Some(Self::Shutdown),
            0x05 => Some(Self::Root),
            0x06 => Some(Self::ProveMember),
            0x07 => Some(Self::Consistency),
            _ => None,
        }
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Verify the enclosed claim artifact bytes.
    Verify(Vec<u8>),
    /// Fetch metrics.
    Stats,
    /// Graceful shutdown.
    Shutdown,
    /// Fetch the current ledger head.
    Root,
    /// Prove membership of the enclosed 64-byte registry leaf encoding.
    ProveMember([u8; 64]),
    /// Prove consistency from the enclosed old tree size.
    Consistency(u64),
}

impl Request {
    /// The request's opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            Self::Verify(_) => Opcode::Verify,
            Self::Stats => Opcode::Stats,
            Self::Shutdown => Opcode::Shutdown,
            Self::Root => Opcode::Root,
            Self::ProveMember(_) => Opcode::ProveMember,
            Self::Consistency(_) => Opcode::Consistency,
        }
    }
}

/// Response status byte. `Ok` means the request succeeded — for `VERIFY`,
/// that the claim is cryptographically valid, names a registered circuit,
/// and attests a *positive* verdict. Every other verification outcome maps
/// to its own status so clients can switch without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request succeeded (for `VERIFY`: ownership established).
    Ok = 0x00,
    /// Valid proof, but it attests the watermark was *not* recovered.
    NegativeVerdict = 0x01,
    /// The pairing check failed — forged or mismatched proof.
    InvalidProof = 0x02,
    /// No verifying key registered for the claim's circuit.
    UnknownCircuit = 0x03,
    /// Claim artifacts disagree about their circuit.
    CircuitMismatch = 0x04,
    /// The claim is about a different statement than the one under dispute.
    StatementMismatch = 0x05,
    /// The claim payload failed to decode as a `SignedClaim` artifact.
    MalformedClaim = 0x06,
    /// Any other server-side failure.
    Internal = 0x07,
    /// A ledger query named something the ledger does not hold: a
    /// `(circuit, statement)` pair never registered, or a claimed old
    /// size beyond the current tree.
    NotInLedger = 0x08,
    /// The server is saturated: its accept queue was full, so this
    /// connection was shed before any request was read. The server closes
    /// the connection after sending this frame; clients should back off
    /// and reconnect (the retrying client does so automatically).
    Busy = 0x09,
    /// The *frame* was malformed (bad opcode, oversized length, bad
    /// payload shape); the server closes the connection after sending
    /// this, since framing can't be resynchronized.
    Protocol = 0xFF,
}

impl Status {
    /// Decodes a status byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0x00 => Some(Self::Ok),
            0x01 => Some(Self::NegativeVerdict),
            0x02 => Some(Self::InvalidProof),
            0x03 => Some(Self::UnknownCircuit),
            0x04 => Some(Self::CircuitMismatch),
            0x05 => Some(Self::StatementMismatch),
            0x06 => Some(Self::MalformedClaim),
            0x07 => Some(Self::Internal),
            0x08 => Some(Self::NotInLedger),
            0x09 => Some(Self::Busy),
            0xFF => Some(Self::Protocol),
            _ => None,
        }
    }

    /// The status's snake_case name — the key its `VERIFY` outcome count is
    /// reported under in the `STATS` JSON.
    pub fn name(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::NegativeVerdict => "negative_verdict",
            Self::InvalidProof => "invalid_proof",
            Self::UnknownCircuit => "unknown_circuit",
            Self::CircuitMismatch => "circuit_mismatch",
            Self::StatementMismatch => "statement_mismatch",
            Self::MalformedClaim => "malformed_claim",
            Self::Internal => "internal",
            Self::NotInLedger => "not_in_ledger",
            Self::Busy => "busy",
            Self::Protocol => "protocol",
        }
    }

    /// Maps a verification error to its wire status.
    pub fn from_error(e: &zkrownn::ZkrownnError) -> Self {
        use zkrownn::ZkrownnError as E;
        match e {
            E::Wire(_) => Self::MalformedClaim,
            E::InvalidProof(_) => Self::InvalidProof,
            E::NegativeVerdict => Self::NegativeVerdict,
            E::StatementMismatch => Self::StatementMismatch,
            E::CircuitMismatch { .. } => Self::CircuitMismatch,
            E::UnknownCircuit(_) => Self::UnknownCircuit,
            E::UnsatisfiedCircuit(_) | E::Synthesis(_) | E::Store(_) | E::Internal(_) => {
                Self::Internal
            }
        }
    }
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outcome status.
    pub status: Status,
    /// Status-specific payload: empty on `Ok` verifications, the metrics
    /// JSON for `STATS`, a UTF-8 message on errors.
    pub payload: Vec<u8>,
}

impl Response {
    /// An empty-payload success response.
    pub fn ok() -> Self {
        Self {
            status: Status::Ok,
            payload: Vec::new(),
        }
    }

    /// An error response carrying a message.
    pub fn error(status: Status, msg: impl Into<String>) -> Self {
        Self {
            status,
            payload: msg.into().into_bytes(),
        }
    }

    /// The payload as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.payload).into_owned()
    }
}

/// Everything that can go wrong decoding a frame. Decoders return these —
/// they never panic, whatever the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The stream ended (or errored) mid-frame.
    Io(io::ErrorKind),
    /// The header announced a payload larger than [`MAX_FRAME_LEN`].
    Oversized {
        /// The announced payload length.
        len: usize,
    },
    /// The opcode byte is not a known [`Opcode`].
    UnknownOpcode(u8),
    /// The status byte is not a known [`Status`].
    UnknownStatus(u8),
    /// The payload length is invalid for the opcode (e.g. `CONSISTENCY`
    /// with a payload that isn't exactly eight bytes).
    BadPayload {
        /// The offending opcode.
        opcode: Opcode,
        /// The payload length received.
        len: usize,
    },
}

impl core::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(kind) => write!(f, "stream ended mid-frame: {kind:?}"),
            Self::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME_LEN}")
            }
            Self::UnknownOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            Self::UnknownStatus(b) => write!(f, "unknown status {b:#04x}"),
            Self::BadPayload { opcode, len } => {
                write!(f, "invalid {len}-byte payload for {opcode:?}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        Self::Io(e.kind())
    }
}

fn read_len(r: &mut impl Read) -> Result<usize, ProtocolError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized { len });
    }
    Ok(len)
}

fn read_payload(r: &mut impl Read, len: usize) -> Result<Vec<u8>, ProtocolError> {
    // read in bounded chunks so a hostile length can't force one huge
    // up-front allocation before any byte arrives
    let mut payload = Vec::with_capacity(len.min(64 * 1024));
    let mut remaining = len;
    let mut chunk = [0u8; 64 * 1024];
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        r.read_exact(&mut chunk[..take])?;
        payload.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    Ok(payload)
}

/// Reads a request frame's body given its already-consumed opcode byte —
/// what the server calls after its idle loop has pulled one byte off the
/// socket.
pub fn read_request_body(opcode: u8, r: &mut impl Read) -> Result<Request, ProtocolError> {
    let opcode = Opcode::from_u8(opcode).ok_or(ProtocolError::UnknownOpcode(opcode))?;
    let len = read_len(r)?;
    match opcode {
        Opcode::Verify => Ok(Request::Verify(read_payload(r, len)?)),
        Opcode::Stats | Opcode::Shutdown | Opcode::Root => {
            if len != 0 {
                return Err(ProtocolError::BadPayload { opcode, len });
            }
            Ok(match opcode {
                Opcode::Stats => Request::Stats,
                Opcode::Root => Request::Root,
                _ => Request::Shutdown,
            })
        }
        Opcode::ProveMember => {
            if len != 64 {
                return Err(ProtocolError::BadPayload { opcode, len });
            }
            let payload = read_payload(r, 64)?;
            let mut leaf = [0u8; 64];
            leaf.copy_from_slice(&payload);
            Ok(Request::ProveMember(leaf))
        }
        Opcode::Consistency => {
            if len != 8 {
                return Err(ProtocolError::BadPayload { opcode, len });
            }
            let payload = read_payload(r, 8)?;
            let mut size = [0u8; 8];
            size.copy_from_slice(&payload);
            Ok(Request::Consistency(u64::from_le_bytes(size)))
        }
    }
}

/// Reads one request frame. Returns `Ok(None)` on a clean end-of-stream
/// (no bytes before EOF); a stream that dies mid-frame is an error.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, ProtocolError> {
    let mut opcode = [0u8; 1];
    match r.read(&mut opcode) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e.into()),
    }
    read_request_body(opcode[0], r).map(Some)
}

fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    w.write_all(&[tag])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Writes one request frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    let tag = req.opcode() as u8;
    match req {
        Request::Verify(bytes) => write_frame(w, tag, bytes),
        Request::Stats | Request::Shutdown | Request::Root => write_frame(w, tag, &[]),
        Request::ProveMember(leaf) => write_frame(w, tag, leaf),
        Request::Consistency(old_size) => write_frame(w, tag, &old_size.to_le_bytes()),
    }
}

/// Reads one response frame.
pub fn read_response(r: &mut impl Read) -> Result<Response, ProtocolError> {
    let mut status = [0u8; 1];
    r.read_exact(&mut status)?;
    let status = Status::from_u8(status[0]).ok_or(ProtocolError::UnknownStatus(status[0]))?;
    let len = read_len(r)?;
    let payload = read_payload(r, len)?;
    Ok(Response { status, payload })
}

/// Writes one response frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    write_frame(w, resp.status as u8, &resp.payload)
}

/// Encodes a request to a standalone byte vector (testing and buffering).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_request(&mut out, req).expect("writing to a Vec cannot fail");
    out
}

/// Encodes a response to a standalone byte vector (testing and buffering).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    write_response(&mut out, resp).expect("writing to a Vec cannot fail");
    out
}
