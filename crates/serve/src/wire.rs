//! Versioned, length-prefixed wire codec for legalization requests.
//!
//! Every frame on the stream is self-describing:
//!
//! ```text
//! +-------+---------+------+-----------+----------------+
//! | MAGIC | VERSION | KIND | LEN (u32) | LEN payload    |
//! | 4 B   | u16 LE  | u8   | LE        | bytes          |
//! +-------+---------+------+-----------+----------------+
//! ```
//!
//! Ten frame kinds exist. The six job/observability kinds: a
//! [`JobRequest`] (client → server), a [`JobResponse`] (server →
//! client, success), an [`ErrorReply`] (server → client, rejection or
//! partial failure), a [`ProgressUpdate`] (server → client, streamed
//! mid-job when the request asked for a progress stride), a stats
//! request (client → server, empty payload) and a [`StatsSnapshot`]
//! (server → client). Version 3 adds the four control-plane kinds: a
//! [`PutDesign`] upload (client → server) answered by a [`DesignAck`],
//! and a [`DeltaJobRequest`](crate::delta::DeltaJobRequest) naming a
//! cached baseline by content hash, answered either by the usual
//! terminal reply or by a typed [`NeedDesign`] cache miss.
//! All integers are little-endian; `f64` values travel as their
//! IEEE-754 bit patterns, so a decoded placement is *bit-identical* to
//! the encoded one — the server-side diffusion result is exactly the
//! result of a local call.
//!
//! Progress frames are strictly informational: a client that only reads
//! until the terminal Response/Error frame can skip them (that is what
//! [`ServeClient`](crate::ServeClient) does by default), so enabling
//! progress on the server never breaks a consumer.
//!
//! Optional parts of a request, response or delta request (the
//! volumetric region, its exact step count and field, a trace context, a
//! span export) travel in one extension block after the frame's fixed
//! fields: a run of `tag: u8, len: u32, body` records in strictly
//! ascending tag order, running to the end of the payload. A frame
//! without optional parts has an empty block, so it is byte-identical
//! to the same frame in every earlier version. DESIGN.md §22 has the
//! tag table.
//!
//! The design payload inside a request supports two encodings:
//!
//! - [`PayloadEncoding::Binary`] — the native codec (compact, exact);
//! - [`PayloadEncoding::Bookshelf`] — the four Bookshelf text files
//!   (`.nodes`/`.nets`/`.pl`/`.scl`) as produced by `dpm-bookshelf`,
//!   so any tool that speaks the ISPD format can talk to the server.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use dpm_bookshelf::BookshelfDesign;
use dpm_diffusion::{
    DiffusionConfig, FieldPrecision, KernelTimers, KernelTiming, LaneMode, SolverKind,
};
use dpm_geom::Point;
use dpm_netlist::{CellKind, Netlist, NetlistBuilder, PinDir};
use dpm_obs::{HistogramSnapshot, SpanRecord, TraceContext};
use dpm_place::{Die, Placement};

/// Frame preamble identifying the protocol ("Diffusion Placement
/// Migration Serve").
pub const MAGIC: [u8; 4] = *b"DPMS";

/// Current codec version. Decoders accept any version in
/// [`MIN_VERSION`]`..=`[`VERSION`].
/// Version 2 added the Progress/StatsRequest/Stats frame kinds and the
/// request's `design` name and `progress_stride` fields. Version 3 adds
/// the control-plane frame kinds (PutDesign / DesignAck / DeltaRequest
/// / NeedDesign) without touching any v2 payload layout. Version 4
/// replaces the v3 extension flags bytes with one tagged extension
/// block (DESIGN.md §22); frames without extensions are unchanged. Servers
/// echo the version a request arrived with on its replies, so an older
/// client never sees a newer header.
pub const VERSION: u16 = 4;

/// Oldest codec version decoders still accept. Decoders are
/// version-blind: a v2 or v3 frame without extensions decodes with the
/// same code as a v4 one.
pub const MIN_VERSION: u16 = 2;

/// Default cap on a single frame's payload length (64 MiB) — a guard
/// against unbounded allocation from a hostile or corrupt peer.
pub const DEFAULT_MAX_FRAME_LEN: usize = 64 << 20;

/// Errors produced while encoding, framing, or decoding.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The frame preamble was not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame's codec version is outside
    /// [`MIN_VERSION`]`..=`[`VERSION`].
    UnsupportedVersion(u16),
    /// The frame kind byte names no known frame.
    UnknownFrameKind(u8),
    /// The declared payload length exceeds the reader's cap.
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// The reader's configured cap.
        max: usize,
    },
    /// The payload ended before a field was complete.
    Truncated {
        /// Which field was being read.
        context: &'static str,
    },
    /// The payload decoded but describes an invalid object.
    Malformed {
        /// Which object was being decoded.
        context: &'static str,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "stream error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownFrameKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {max}")
            }
            WireError::Truncated { context } => {
                write!(f, "payload truncated while reading {context}")
            }
            WireError::Malformed { context, message } => {
                write!(f, "malformed {context}: {message}")
            }
        }
    }
}

impl Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

pub(crate) fn malformed(context: &'static str, message: impl Into<String>) -> WireError {
    WireError::Malformed {
        context,
        message: message.into(),
    }
}

/// What kind of payload a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A [`JobRequest`].
    Request,
    /// A [`JobResponse`].
    Response,
    /// An [`ErrorReply`].
    Error,
    /// A [`ProgressUpdate`] streamed mid-job before the terminal reply.
    Progress,
    /// A client's request for a [`StatsSnapshot`]; empty payload.
    StatsRequest,
    /// A [`StatsSnapshot`] answering a stats request.
    Stats,
    /// (v3) A [`PutDesign`]: a full design upload keyed by its FNV
    /// content hash, populating the server's design cache.
    PutDesign,
    /// (v3) A [`DesignAck`] answering a design upload.
    DesignAck,
    /// (v3) A [`DeltaJobRequest`](crate::delta::DeltaJobRequest): a job
    /// naming a cached baseline by hash plus an ECO delta against it.
    DeltaRequest,
    /// (v3) A [`NeedDesign`]: the named baseline is not cached; the
    /// client must upload it with a [`PutDesign`] and retry.
    NeedDesign,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Error => 3,
            FrameKind::Progress => 4,
            FrameKind::StatsRequest => 5,
            FrameKind::Stats => 6,
            FrameKind::PutDesign => 7,
            FrameKind::DesignAck => 8,
            FrameKind::DeltaRequest => 9,
            FrameKind::NeedDesign => 10,
        }
    }

    fn from_u8(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            3 => Ok(FrameKind::Error),
            4 => Ok(FrameKind::Progress),
            5 => Ok(FrameKind::StatsRequest),
            6 => Ok(FrameKind::Stats),
            7 => Ok(FrameKind::PutDesign),
            8 => Ok(FrameKind::DesignAck),
            9 => Ok(FrameKind::DeltaRequest),
            10 => Ok(FrameKind::NeedDesign),
            k => Err(WireError::UnknownFrameKind(k)),
        }
    }
}

/// One frame pulled off a stream: its kind plus the raw payload.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame kind byte, already validated.
    pub kind: FrameKind,
    /// Codec version the frame arrived with (in
    /// [`MIN_VERSION`]`..=`[`VERSION`]). Servers echo it on replies so
    /// old clients never see a header newer than what they speak.
    pub version: u16,
    /// Undecoded payload bytes.
    pub payload: Vec<u8>,
}

/// Writes one frame (header + payload) to `w`.
///
/// # Errors
///
/// Returns [`WireError::Io`] if the stream fails, and
/// [`WireError::FrameTooLarge`] if the payload cannot be described by a
/// `u32` length.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), WireError> {
    write_frame_versioned(w, VERSION, kind, payload)
}

/// Writes one frame stamped with an explicit codec `version`. Servers
/// use this to echo the version a request arrived with, so a v2 client
/// only ever reads v2 headers.
///
/// # Errors
///
/// Same as [`write_frame`].
pub fn write_frame_versioned(
    w: &mut impl Write,
    version: u16,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(), WireError> {
    if payload.len() > u32::MAX as usize {
        return Err(WireError::FrameTooLarge {
            len: payload.len(),
            max: u32::MAX as usize,
        });
    }
    let mut header = [0u8; 11];
    header[..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&version.to_le_bytes());
    header[6] = kind.to_u8();
    header[7..11].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(w.flush()?)
}

/// How many consecutive mid-frame read timeouts [`read_frame`] tolerates
/// before declaring the peer stalled. Each timeout blocks for the
/// socket's own read deadline, so on a 25ms poll this is ~10s of total
/// silence in the middle of a frame.
const MID_FRAME_STALL_LIMIT: u32 = 400;

/// `read_exact` that survives read-timeout sockets: a timeout after the
/// frame has started is the peer pausing between TCP segments (Nagle,
/// scheduling, a slow writer), not an idle connection, so already-read
/// bytes must not be discarded. Resumes across `WouldBlock`/`TimedOut`
/// up to [`MID_FRAME_STALL_LIMIT`] consecutive timeouts, then gives up
/// with [`WireError::Truncated`] so callers drop the desynced stream
/// instead of treating it as idle.
fn read_full(r: &mut impl Read, buf: &mut [u8], context: &'static str) -> Result<(), WireError> {
    let mut off = 0;
    let mut stalls = 0u32;
    while off < buf.len() {
        match r.read(&mut buf[off..]) {
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream closed mid-frame while reading {context}"),
                )))
            }
            Ok(n) => {
                off += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                stalls += 1;
                if stalls >= MID_FRAME_STALL_LIMIT {
                    return Err(WireError::Truncated { context });
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Checks an 11-byte frame header — magic, version range, kind, then
/// the length cap, in that order — and returns its kind, version and
/// payload length.
fn parse_header(h: &[u8; 11], max_len: usize) -> Result<(FrameKind, u16, usize), WireError> {
    let magic = [h[0], h[1], h[2], h[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([h[4], h[5]]);
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = FrameKind::from_u8(h[6])?;
    let len = u32::from_le_bytes([h[7], h[8], h[9], h[10]]) as usize;
    if len > max_len {
        return Err(WireError::FrameTooLarge { len, max: max_len });
    }
    Ok((kind, version, len))
}

/// Reads one frame from `r`, or `None` on clean end-of-stream (the peer
/// closed the connection exactly at a frame boundary).
///
/// Sockets with a read deadline only surface the timeout *before* the
/// first byte of a frame — that is the idle-poll point servers use to
/// check for shutdown. Once a frame has started, timeouts between TCP
/// segments are absorbed and the read resumes where it left off;
/// returning mid-frame would desync the stream, because the bytes
/// already consumed cannot be pushed back.
///
/// # Errors
///
/// Returns [`WireError::Io`] on stream failure (including pre-frame
/// timeouts on sockets with a read deadline), [`WireError::BadMagic`] /
/// [`WireError::UnsupportedVersion`] / [`WireError::UnknownFrameKind`] on
/// header corruption, [`WireError::FrameTooLarge`] when the declared
/// length exceeds `max_len`, and [`WireError::Truncated`] when the peer
/// goes silent in the middle of a frame for longer than the stall limit.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Option<Frame>, WireError> {
    // First byte separately: zero bytes here is a clean EOF, and a
    // timeout here is an idle connection the caller may poll on.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let mut header = [0u8; 11];
    header[0] = first[0];
    read_full(r, &mut header[1..], "frame header")?;
    let (kind, version, len) = parse_header(&header, max_len)?;
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, "frame payload")?;
    Ok(Some(Frame {
        kind,
        version,
        payload,
    }))
}

/// Incremental frame parser for non-blocking streams: feed bytes as
/// they arrive with [`push`](Self::push), pull complete frames with
/// [`next_frame`](Self::next_frame). The async control-plane front-end
/// uses one assembler per connection; blocking readers keep using
/// [`read_frame`].
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily so the buffer never grows without bound on a
        // long-lived connection.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns the same header errors as [`read_frame`]. After an error
    /// the stream position is unknown; drop the connection.
    pub fn next_frame(&mut self, max_len: usize) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.pos..];
        let Some(header) = avail.first_chunk::<11>() else {
            return Ok(None);
        };
        let (kind, version, len) = parse_header(header, max_len)?;
        if avail.len() < 11 + len {
            return Ok(None);
        }
        let payload = avail[11..11 + len].to_vec();
        self.pos += 11 + len;
        Ok(Some(Frame {
            kind,
            version,
            payload,
        }))
    }
}

// ---------------------------------------------------------------------------
// Primitive put/take helpers.
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}
fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    for &v in vs {
        put_f64(buf, v);
    }
}

// ---------------------------------------------------------------------------
// Extension block (DESIGN.md §22).
// ---------------------------------------------------------------------------

/// Extension tag: volumetric region. A request's body is `nz`, `z0`,
/// `global_nz` (u32 each) then the depths; a response's is the depths.
const TAG_VOL: u8 = 0x20;
/// Extension tag: a request's `exact_steps` (one u64). Needs [`TAG_VOL`].
const TAG_EXACT_STEPS: u8 = 0x21;
/// Extension tag: a density field (f64s). Needs [`TAG_VOL`].
const TAG_FIELD: u8 = 0x22;
/// Extension tag: the 24-byte trace context of a request or delta.
pub(crate) const TAG_TRACE: u8 = 0x23;
/// Extension tag: a response's span export.
const TAG_SPANS: u8 = 0x24;

/// Appends one extension record: `tag`, the body's `u32` length, then
/// the body `write` produces. Callers emit records in ascending tag
/// order.
pub(crate) fn put_ext(buf: &mut Vec<u8>, tag: u8, write: impl FnOnce(&mut Vec<u8>)) {
    put_u8(buf, tag);
    let len_at = buf.len();
    put_u32(buf, 0);
    write(buf);
    let len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// A fallible little-endian reader over a payload slice.
pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(std::array::from_fn(|i| b[i])))
    }

    pub(crate) fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// An `f64` that must be finite: design geometry and volumetric
    /// arrays feed engines that assert on NaN and infinities.
    fn finite_f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        let v = self.f64(context)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(malformed(context, format!("non-finite value {v}")))
        }
    }

    pub(crate) fn str_(&mut self, context: &'static str) -> Result<String, WireError> {
        // `take` rejects a length past the payload before anything is
        // allocated.
        let len = self.u32(context)? as usize;
        String::from_utf8(self.take(len, context)?.to_vec())
            .map_err(|_| malformed(context, "string is not valid UTF-8"))
    }

    /// A `u32` count, then that many entries read by `entry`. The count
    /// is checked against what the rest of the buffer could hold at
    /// `min_len` bytes per entry before anything is allocated.
    pub(crate) fn entries<T>(
        &mut self,
        context: &'static str,
        min_len: usize,
        mut entry: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.u32(context)? as usize;
        if n > (self.buf.len() - self.pos) / min_len {
            return Err(malformed(
                context,
                format!("{n} entries cannot fit the payload"),
            ));
        }
        (0..n).map(|_| entry(self)).collect()
    }

    /// The rest of the buffer as finite `f64`s. Fewer than 8 leftover
    /// bytes stay unread, so a ragged record fails its `finish` check.
    fn finite_f64s(&mut self, context: &'static str) -> Result<Vec<f64>, WireError> {
        let n = (self.buf.len() - self.pos) / 8;
        (0..n).map(|_| self.finite_f64(context)).collect()
    }

    pub(crate) fn finish(&self, context: &'static str) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(malformed(context, "trailing bytes after payload"));
        }
        Ok(())
    }

    /// The extension block that runs to the end of the payload.
    pub(crate) fn ext<'c>(&'c mut self, context: &'static str) -> Ext<'c, 'a> {
        Ext {
            cur: self,
            context,
            last: None,
        }
    }
}

/// A reader of the extension block: records `tag: u8, len: u32,
/// body[len]` with strictly ascending tags, to the end of the payload.
/// The decoder matches each [`Ext::tag`] against the tags its frame kind
/// defines, reads a defined record with [`Ext::body`] and rejects any
/// other tag with [`Ext::unknown`] before its length is read.
pub(crate) struct Ext<'c, 'a> {
    cur: &'c mut Cur<'a>,
    context: &'static str,
    last: Option<u8>,
}

impl<'a> Ext<'_, 'a> {
    /// The next record's tag, or `None` at the end of the payload.
    pub(crate) fn tag(&mut self) -> Result<Option<u8>, WireError> {
        if self.cur.pos == self.cur.buf.len() {
            return Ok(None);
        }
        let tag = self.cur.u8(self.context)?;
        if self.last.is_some_and(|l| tag <= l) {
            let order = format!("extension tag {tag:#04x} out of order");
            return Err(malformed(self.context, order));
        }
        self.last = Some(tag);
        Ok(Some(tag))
    }

    /// Reads the current record's body with `read`, which must consume
    /// all of it; the body may not run past the payload.
    pub(crate) fn body<T>(
        &mut self,
        read: impl FnOnce(&mut Cur<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let len = self.cur.u32(self.context)? as usize;
        let mut body = Cur::new(self.cur.take(len, self.context)?);
        let value = read(&mut body)?;
        body.finish(self.context)?;
        Ok(value)
    }

    /// The error for a tag the frame kind does not define.
    pub(crate) fn unknown(&self, tag: u8) -> WireError {
        malformed(self.context, format!("unknown extension tag {tag:#04x}"))
    }
}

// ---------------------------------------------------------------------------
// Request.
// ---------------------------------------------------------------------------

/// Which diffusion algorithm a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Global diffusion (paper Algorithm 1).
    Global,
    /// Robust local diffusion (paper Algorithm 3).
    Local,
}

/// How the design (netlist + die + placement) travels inside a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadEncoding {
    /// The native binary codec: exact `f64` bit patterns, compact.
    Binary,
    /// Four Bookshelf text files (`.nodes`/`.nets`/`.pl`/`.scl`).
    Bookshelf,
}

/// One legalization request: a design plus the diffusion parameters.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Client-chosen correlation id, echoed in every reply.
    pub id: u64,
    /// Deadline in milliseconds, measured from the moment the server
    /// admits the request to its queue (so queue wait counts against it).
    /// `0` means "use the server's default"; the server's default of `0`
    /// means no deadline.
    pub deadline_ms: u32,
    /// Progress-frame stride: every `progress_stride` diffusion steps
    /// the server streams a [`ProgressUpdate`] frame on the connection
    /// before the terminal reply. `0` (the default) disables progress
    /// frames.
    pub progress_stride: u32,
    /// Which algorithm to run.
    pub kind: JobKind,
    /// Free-form design name, echoed into the server's request log.
    /// Logged names are JSON-escaped server-side, so any string is safe.
    pub design: String,
    /// Diffusion parameters. Validated server-side with
    /// [`DiffusionConfig::validate`]; invalid configs are rejected with
    /// an [`ErrorCode::InvalidConfig`] reply, never a crash.
    pub config: DiffusionConfig,
    /// The circuit.
    pub netlist: Netlist,
    /// The placement region.
    pub die: Die,
    /// Cell positions to legalize.
    pub placement: Placement,
    /// Optional volumetric (3D) dimension extension: the VOL record of
    /// the extension block, plus EXACT_STEPS and FIELD records for its
    /// optional parts. `None` is a plain planar job and writes no record.
    pub vol: Option<VolRequestExt>,
    /// Optional distributed-trace context: the TRACE record of the
    /// extension block. `None` writes no record.
    pub trace: Option<TraceContext>,
}

/// The volumetric dimension extension of a [`JobRequest`].
///
/// Travels as extension records after the solver byte (DESIGN.md §22):
/// VOL carries the tier region and depths, EXACT_STEPS and FIELD the
/// optional parts. Planar requests carry none of them.
#[derive(Debug, Clone, PartialEq)]
pub struct VolRequestExt {
    /// Tiers in the shipped region (the whole stack for direct runs).
    pub nz: u32,
    /// First global tier of the region (`0` for direct runs).
    pub z0: u32,
    /// Total tiers of the global stack.
    pub global_nz: u32,
    /// Run exactly this many FTCS steps instead of to convergence —
    /// the z-slab router's halo-exchange sub-jobs use `Some(1)`.
    pub exact_steps: Option<u64>,
    /// Per-cell depth in region-local tier units, netlist cell order.
    pub z: Vec<f64>,
    /// Pre-splatted plane-major density field for the region; `None`
    /// makes the server splat (and manipulate) from the placement.
    pub field: Option<Vec<f64>>,
}

pub(crate) fn put_config(buf: &mut Vec<u8>, c: &DiffusionConfig) {
    put_f64(buf, c.bin_size);
    put_f64(buf, c.d_max);
    put_f64(buf, c.delta);
    put_f64(buf, c.dt);
    put_f64(buf, c.diffusivity);
    put_u64(buf, c.max_steps as u64);
    put_u8(buf, c.manipulate as u8);
    put_u8(buf, c.interpolate as u8);
    put_u64(buf, c.w1 as u64);
    put_u64(buf, c.w2 as u64);
    put_u64(buf, c.n_u as u64);
    put_u64(buf, c.max_rounds as u64);
    put_f64(buf, c.max_step_displacement);
    put_u8(buf, c.paper_boundaries as u8);
    put_u64(buf, c.threads as u64);
}

pub(crate) fn take_config(cur: &mut Cur<'_>) -> Result<DiffusionConfig, WireError> {
    Ok(DiffusionConfig {
        bin_size: cur.f64("config.bin_size")?,
        d_max: cur.f64("config.d_max")?,
        delta: cur.f64("config.delta")?,
        dt: cur.f64("config.dt")?,
        diffusivity: cur.f64("config.diffusivity")?,
        max_steps: cur.u64("config.max_steps")? as usize,
        manipulate: cur.u8("config.manipulate")? != 0,
        interpolate: cur.u8("config.interpolate")? != 0,
        w1: cur.u64("config.w1")? as usize,
        w2: cur.u64("config.w2")? as usize,
        n_u: cur.u64("config.n_u")? as usize,
        max_rounds: cur.u64("config.max_rounds")? as usize,
        max_step_displacement: cur.f64("config.max_step_displacement")?,
        paper_boundaries: cur.u8("config.paper_boundaries")? != 0,
        threads: cur.u64("config.threads")? as usize,
        // The solver kind travels as an *optional trailing byte* of the
        // request payload (see `encode_request`), not inside the config
        // block, so that v2 frames from pre-spectral clients still decode
        // as FTCS.
        solver: SolverKind::Ftcs,
        // `LaneMode` has a single value and changes no result, so it
        // does not travel on the wire.
        lanes: LaneMode::Wide,
        precision: FieldPrecision::F64,
    })
}

pub(crate) fn solver_kind_from_u8(b: u8) -> Result<SolverKind, WireError> {
    match b {
        0 => Ok(SolverKind::Ftcs),
        1 => Ok(SolverKind::Spectral),
        k => Err(malformed(
            "request.solver",
            format!("unknown solver kind {k}"),
        )),
    }
}

pub(crate) fn cell_kind_to_u8(k: CellKind) -> u8 {
    match k {
        CellKind::Movable => 0,
        CellKind::FixedMacro => 1,
        CellKind::Pad => 2,
    }
}

pub(crate) fn cell_kind_from_u8(b: u8) -> Result<CellKind, WireError> {
    match b {
        0 => Ok(CellKind::Movable),
        1 => Ok(CellKind::FixedMacro),
        2 => Ok(CellKind::Pad),
        k => Err(malformed("cell.kind", format!("unknown cell kind {k}"))),
    }
}

fn put_binary_design(buf: &mut Vec<u8>, nl: &Netlist, die: &Die, p: &Placement) {
    let o = die.outline();
    put_f64(buf, o.llx);
    put_f64(buf, o.lly);
    put_f64(buf, o.urx - o.llx);
    put_f64(buf, o.ury - o.lly);
    put_f64(buf, die.row_height());

    put_u32(buf, nl.num_cells() as u32);
    for c in nl.cell_ids() {
        let cell = nl.cell(c);
        put_str(buf, &cell.name);
        put_f64(buf, cell.width);
        put_f64(buf, cell.height);
        put_u8(buf, cell_kind_to_u8(cell.kind));
        put_f64(buf, cell.delay);
        let pos = p.get(c);
        put_f64(buf, pos.x);
        put_f64(buf, pos.y);
    }

    put_u32(buf, nl.num_nets() as u32);
    for n in nl.net_ids() {
        let net = nl.net(n);
        put_str(buf, &net.name);
        put_u32(buf, net.pins.len() as u32);
        for &pid in &net.pins {
            let pin = nl.pin(pid);
            put_u32(buf, pin.cell.index() as u32);
            put_u8(buf, matches!(pin.dir, PinDir::Output) as u8);
            put_f64(buf, pin.offset.x);
            put_f64(buf, pin.offset.y);
        }
    }
}

fn take_binary_design(cur: &mut Cur<'_>) -> Result<(Netlist, Die, Placement), WireError> {
    let llx = cur.f64("die.llx")?;
    let lly = cur.f64("die.lly")?;
    let width = cur.f64("die.width")?;
    let height = cur.f64("die.height")?;
    let row_height = cur.f64("die.row_height")?;
    let die = checked_die(llx, lly, width, height, row_height)?;

    let num_cells = cur.u32("cells.count")? as usize;
    let mut b = NetlistBuilder::with_capacity(num_cells.min(1 << 20), 0, 0);
    let mut positions = Vec::with_capacity(num_cells.min(1 << 20));
    for _ in 0..num_cells {
        let name = cur.str_("cell.name")?;
        let w = cur.finite_f64("cell.width")?;
        let h = cur.finite_f64("cell.height")?;
        let kind = cell_kind_from_u8(cur.u8("cell.kind")?)?;
        let delay = cur.finite_f64("cell.delay")?;
        let x = cur.finite_f64("cell.x")?;
        let y = cur.finite_f64("cell.y")?;
        b.add_cell_with_delay(name, w, h, kind, delay);
        positions.push(Point::new(x, y));
    }

    let num_nets = cur.u32("nets.count")? as usize;
    for _ in 0..num_nets {
        let name = cur.str_("net.name")?;
        let nid = b.add_net(name);
        let num_pins = cur.u32("net.pins.count")? as usize;
        for _ in 0..num_pins {
            let cell = cur.u32("pin.cell")? as usize;
            if cell >= num_cells {
                return Err(malformed(
                    "pin.cell",
                    format!("pin references cell {cell} of {num_cells}"),
                ));
            }
            let dir = if cur.u8("pin.dir")? != 0 {
                PinDir::Output
            } else {
                PinDir::Input
            };
            let ox = cur.finite_f64("pin.ox")?;
            let oy = cur.finite_f64("pin.oy")?;
            b.connect(dpm_netlist::CellId::new(cell as u32), nid, dir, ox, oy);
        }
    }

    let netlist = b.build().map_err(|e| malformed("netlist", e.to_string()))?;
    let mut placement = Placement::new(netlist.num_cells());
    for (c, pos) in netlist.cell_ids().zip(positions) {
        placement.set(c, pos);
    }
    Ok((netlist, die, placement))
}

/// The row count of a die whose outline, starting at `lly`, is `height`
/// tall. Encoders send the trimmed height `(lly + rows * row_height) -
/// lly`, which can round to just under `rows` row heights, so a plain
/// floor would lose the top row.
fn rows_for(lly: f64, height: f64, row_height: f64) -> f64 {
    let rows = (height / row_height).floor();
    if (lly + (rows + 1.0) * row_height) - lly == height {
        rows + 1.0
    } else {
        rows
    }
}

/// Builds a [`Die`] from wire values without panicking on garbage.
fn checked_die(
    llx: f64,
    lly: f64,
    width: f64,
    height: f64,
    row_height: f64,
) -> Result<Die, WireError> {
    let all_finite = [llx, lly, width, height, row_height]
        .iter()
        .all(|v| v.is_finite());
    let rows = rows_for(lly, height, row_height);
    // `Die::with_origin` floors `height / row_height`: half a row over
    // lands the floor on `rows`.
    let build_height = (rows + 0.5) * row_height;
    // The row-count cap stops a finite-but-absurd height from driving a
    // giant row allocation inside `Die::with_origin`, and so does the
    // finite build height: an infinite one floors to `usize::MAX` rows.
    if !all_finite
        || width <= 0.0
        || height <= 0.0
        || row_height <= 0.0
        || !(1.0..=16_000_000.0).contains(&rows)
        || !build_height.is_finite()
    {
        return Err(malformed(
            "die",
            format!("degenerate die {width}x{height} at ({llx}, {lly}), row height {row_height}"),
        ));
    }
    let die = Die::with_origin(llx, lly, width, build_height, row_height);
    // Encoders send the outline's size, so it must decode to this die
    // again; an origin far out swallows or rounds the size.
    let o = die.outline();
    let (w, h) = (o.urx - o.llx, o.ury - o.lly);
    if !(w > 0.0
        && w.is_finite()
        && llx + w == o.urx
        && h > 0.0
        && rows_for(lly, h, row_height) == rows)
    {
        return Err(malformed(
            "die",
            format!("die at ({llx}, {lly}) does not survive re-encoding as {w}x{h}"),
        ));
    }
    Ok(die)
}

/// Encodes a request into a frame payload (not yet framed).
///
/// `encoding` selects how the design travels; the rest of the request is
/// identical either way.
pub fn encode_request(req: &JobRequest, encoding: PayloadEncoding) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, req.id);
    put_u32(&mut buf, req.deadline_ms);
    put_u32(&mut buf, req.progress_stride);
    put_u8(&mut buf, matches!(req.kind, JobKind::Local) as u8);
    put_str(&mut buf, &req.design);
    put_config(&mut buf, &req.config);
    match encoding {
        PayloadEncoding::Binary => {
            put_u8(&mut buf, 0);
            put_binary_design(&mut buf, &req.netlist, &req.die, &req.placement);
        }
        PayloadEncoding::Bookshelf => {
            put_u8(&mut buf, 1);
            let design = BookshelfDesign::from_parts(&req.netlist, &req.die, &req.placement);
            put_str(&mut buf, &design.write_nodes());
            put_str(&mut buf, &design.write_nets());
            put_str(&mut buf, &design.write_pl());
            put_str(&mut buf, &design.write_scl());
        }
    }
    // The solver kind rides as a trailing byte *after* the design payload,
    // where v3 clients write it; decoders accept frames without it (v2,
    // pre-spectral) as `SolverKind::Ftcs`. The extension block follows.
    put_u8(&mut buf, req.config.solver as u8);
    if let Some(v) = &req.vol {
        put_ext(&mut buf, TAG_VOL, |b| {
            put_u32(b, v.nz);
            put_u32(b, v.z0);
            put_u32(b, v.global_nz);
            put_f64s(b, &v.z);
        });
        if let Some(steps) = v.exact_steps {
            put_ext(&mut buf, TAG_EXACT_STEPS, |b| put_u64(b, steps));
        }
        if let Some(field) = &v.field {
            put_ext(&mut buf, TAG_FIELD, |b| put_f64s(b, field));
        }
    }
    if let Some(t) = &req.trace {
        put_ext(&mut buf, TAG_TRACE, |b| put_trace(b, t));
    }
    buf
}

/// Writes a 24-byte trace-context block.
pub(crate) fn put_trace(buf: &mut Vec<u8>, t: &TraceContext) {
    put_u64(buf, t.trace_id);
    put_u64(buf, t.span_id);
    put_u64(buf, t.parent_id);
}

/// Reads a 24-byte trace-context block.
pub(crate) fn take_trace(cur: &mut Cur<'_>) -> Result<TraceContext, WireError> {
    let trace_id = cur.u64("trace.trace_id")?;
    let span_id = cur.u64("trace.span_id")?;
    let parent_id = cur.u64("trace.parent_id")?;
    if trace_id == 0 || span_id == 0 {
        return Err(malformed("trace", "zero trace or span id"));
    }
    Ok(TraceContext {
        trace_id,
        span_id,
        parent_id,
    })
}

/// Decodes a request's volumetric region record: the tier region, then
/// the depths filling the rest of the body.
fn take_vol_region(cur: &mut Cur<'_>) -> Result<VolRequestExt, WireError> {
    let nz = cur.u32("vol.nz")?;
    let z0 = cur.u32("vol.z0")?;
    let global_nz = cur.u32("vol.global_nz")?;
    if nz == 0 || global_nz == 0 || z0.checked_add(nz).is_none_or(|end| end > global_nz) {
        return Err(malformed(
            "vol",
            format!("degenerate tier region [{z0}, {z0}+{nz}) of {global_nz}"),
        ));
    }
    Ok(VolRequestExt {
        nz,
        z0,
        global_nz,
        exact_steps: None,
        z: cur.finite_f64s("vol.z")?,
        field: None,
    })
}

/// The volumetric extension a `needs VOL` record attaches to; ascending
/// tag order puts [`TAG_VOL`] first, so `None` means it is absent.
fn vol_of<'v, T>(vol: &'v mut Option<T>, context: &'static str) -> Result<&'v mut T, WireError> {
    vol.as_mut()
        .ok_or_else(|| malformed(context, "extension record without a vol record"))
}

/// Decodes a request frame payload.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] when the payload ends early and
/// [`WireError::Malformed`] when it decodes to an invalid design
/// (degenerate die, pin referencing a missing cell, Bookshelf text that
/// does not parse, …). Never panics on adversarial input.
pub fn decode_request(payload: &[u8]) -> Result<JobRequest, WireError> {
    let mut cur = Cur::new(payload);
    let id = cur.u64("request.id")?;
    let deadline_ms = cur.u32("request.deadline_ms")?;
    let progress_stride = cur.u32("request.progress_stride")?;
    let kind = if cur.u8("request.kind")? != 0 {
        JobKind::Local
    } else {
        JobKind::Global
    };
    let design = cur.str_("request.design")?;
    let config = take_config(&mut cur)?;
    let encoding = cur.u8("request.encoding")?;
    let (netlist, die, placement) = match encoding {
        0 => take_binary_design(&mut cur)?,
        1 => {
            let nodes = cur.str_("bookshelf.nodes")?;
            let nets = cur.str_("bookshelf.nets")?;
            let pl = cur.str_("bookshelf.pl")?;
            let scl = cur.str_("bookshelf.scl")?;
            let loaded = dpm_bookshelf::load_design(&nodes, &nets, &pl, &scl)
                .map_err(|e| malformed("bookshelf design", e.to_string()))?;
            (loaded.netlist, loaded.die, loaded.placement)
        }
        e => {
            return Err(malformed(
                "request.encoding",
                format!("unknown payload encoding {e}"),
            ))
        }
    };
    // Optional trailing solver byte: v2 frames from pre-spectral clients
    // end exactly at the design payload and decode as FTCS.
    let mut config = config;
    if cur.pos < cur.buf.len() {
        config.solver = solver_kind_from_u8(cur.u8("request.solver")?)?;
    }
    // The extension block: a frame without one is a planar, untraced job.
    let mut vol = None;
    let mut trace = None;
    let mut ext = cur.ext("request.ext");
    while let Some(tag) = ext.tag()? {
        match tag {
            TAG_VOL => vol = Some(ext.body(take_vol_region)?),
            TAG_EXACT_STEPS => {
                let steps = ext.body(|b| b.u64("vol.exact_steps"))?;
                vol_of(&mut vol, "request.ext")?.exact_steps = Some(steps);
            }
            TAG_FIELD => {
                let field = ext.body(|b| b.finite_f64s("vol.field"))?;
                vol_of(&mut vol, "request.ext")?.field = Some(field);
            }
            TAG_TRACE => trace = Some(ext.body(take_trace)?),
            _ => return Err(ext.unknown(tag)),
        }
    }
    Ok(JobRequest {
        id,
        deadline_ms,
        progress_stride,
        kind,
        design,
        config,
        netlist,
        die,
        placement,
        vol,
        trace,
    })
}

// ---------------------------------------------------------------------------
// Response.
// ---------------------------------------------------------------------------

/// A successful legalization reply.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Whether the diffusion stopping criterion was met.
    pub converged: bool,
    /// Diffusion steps executed.
    pub steps: u64,
    /// Local-diffusion rounds executed (1 for global).
    pub rounds: u64,
    /// Sum of cell displacements.
    pub total_movement: f64,
    /// Largest single-cell displacement.
    pub max_movement: f64,
    /// Time the request waited in the server queue, nanoseconds.
    pub queue_ns: u64,
    /// Time the diffusion run took, nanoseconds.
    pub service_ns: u64,
    /// Final position of every cell, in netlist cell-id order.
    pub positions: Vec<Point>,
    /// Optional volumetric (3D) extension: the VOL record (depths) and,
    /// when the field is returned, the FIELD record of the extension
    /// block. `None` is a planar reply and writes no record.
    pub vol: Option<VolResponseExt>,
    /// Spans this backend recorded for the job, exported when the
    /// request carried a trace context. Timestamps are normalized so
    /// the earliest start is zero (see [`dpm_obs::normalize_spans`]);
    /// the receiver re-bases them under its own dispatch span. All
    /// records share one trace id. Travels as the SPANS record of the
    /// extension block; empty writes no record.
    pub spans: Vec<SpanRecord>,
}

/// The volumetric dimension extension of a [`JobResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct VolResponseExt {
    /// Final per-cell depth in region-local tier units, cell order.
    pub z: Vec<f64>,
    /// The evolved plane-major density field of the region — returned
    /// for halo-exchange sub-jobs so the router can stitch tiers.
    pub field: Option<Vec<f64>>,
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &JobResponse) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, resp.id);
    put_u8(&mut buf, resp.converged as u8);
    put_u64(&mut buf, resp.steps);
    put_u64(&mut buf, resp.rounds);
    put_f64(&mut buf, resp.total_movement);
    put_f64(&mut buf, resp.max_movement);
    put_u64(&mut buf, resp.queue_ns);
    put_u64(&mut buf, resp.service_ns);
    put_u32(&mut buf, resp.positions.len() as u32);
    for p in &resp.positions {
        put_f64(&mut buf, p.x);
        put_f64(&mut buf, p.y);
    }
    if let Some(v) = &resp.vol {
        put_ext(&mut buf, TAG_VOL, |b| put_f64s(b, &v.z));
        if let Some(field) = &v.field {
            put_ext(&mut buf, TAG_FIELD, |b| put_f64s(b, field));
        }
    }
    if !resp.spans.is_empty() {
        put_ext(&mut buf, TAG_SPANS, |b| put_spans(b, &resp.spans));
    }
    buf
}

/// Writes a span-export block: the shared trace id, a count, then each
/// record's name/ids/interval. The per-record trace id is *not* encoded
/// — every exported span belongs to the one trace the request named.
fn put_spans(buf: &mut Vec<u8>, spans: &[SpanRecord]) {
    put_u64(buf, spans.first().map_or(0, |s| s.trace_id));
    put_u32(buf, spans.len() as u32);
    for s in spans {
        put_str(buf, &s.name);
        put_u64(buf, s.span_id);
        put_u64(buf, s.parent_id);
        put_u64(buf, s.start_ns);
        put_u64(buf, s.end_ns);
    }
}

/// Minimum encoded size of one span record (empty name), used to bound
/// the count-driven allocation against hostile payloads.
const SPAN_RECORD_MIN_LEN: usize = 4 + 8 * 4;

/// Reads a span-export block.
fn take_spans(cur: &mut Cur<'_>) -> Result<Vec<SpanRecord>, WireError> {
    let trace_id = cur.u64("spans.trace_id")?;
    let n = cur.u32("spans.count")? as usize;
    let remaining = cur.buf.len() - cur.pos;
    let mut spans = Vec::with_capacity(n.min(remaining / SPAN_RECORD_MIN_LEN));
    for _ in 0..n {
        let name = cur.str_("span.name")?;
        let span_id = cur.u64("span.span_id")?;
        let parent_id = cur.u64("span.parent_id")?;
        let start_ns = cur.u64("span.start_ns")?;
        let end_ns = cur.u64("span.end_ns")?;
        if end_ns < start_ns {
            return Err(malformed("span", "inverted span interval"));
        }
        spans.push(SpanRecord {
            name,
            start_ns,
            end_ns,
            trace_id,
            span_id,
            parent_id,
        });
    }
    Ok(spans)
}

/// Decodes a response frame payload.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] or [`WireError::Malformed`] on
/// corrupt payloads.
pub fn decode_response(payload: &[u8]) -> Result<JobResponse, WireError> {
    let mut cur = Cur::new(payload);
    let id = cur.u64("response.id")?;
    let converged = cur.u8("response.converged")? != 0;
    let steps = cur.u64("response.steps")?;
    let rounds = cur.u64("response.rounds")?;
    let total_movement = cur.f64("response.total_movement")?;
    let max_movement = cur.f64("response.max_movement")?;
    let queue_ns = cur.u64("response.queue_ns")?;
    let service_ns = cur.u64("response.service_ns")?;
    let positions = cur.entries("response.positions.count", 16, |c| {
        let x = c.finite_f64("response.position.x")?;
        Ok(Point::new(x, c.finite_f64("response.position.y")?))
    })?;
    let mut vol = None;
    let mut spans = Vec::new();
    let mut ext = cur.ext("response.ext");
    while let Some(tag) = ext.tag()? {
        match tag {
            TAG_VOL => {
                let z = ext.body(|b| b.finite_f64s("response.vol.z"))?;
                vol = Some(VolResponseExt { z, field: None });
            }
            TAG_FIELD => {
                let field = ext.body(|b| b.finite_f64s("response.vol.field"))?;
                vol_of(&mut vol, "response.ext")?.field = Some(field);
            }
            TAG_SPANS => spans = ext.body(take_spans)?,
            _ => return Err(ext.unknown(tag)),
        }
    }
    Ok(JobResponse {
        id,
        converged,
        steps,
        rounds,
        total_movement,
        max_movement,
        queue_ns,
        service_ns,
        positions,
        vol,
        spans,
    })
}

// ---------------------------------------------------------------------------
// Progress.
// ---------------------------------------------------------------------------

/// A mid-job convergence snapshot, streamed as a [`FrameKind::Progress`]
/// frame every `progress_stride` steps when the request opted in.
///
/// With the paper's stable FTCS discretization (`λ = D·dt ≤ 0.25`) the
/// discrete maximum principle holds, so consecutive `max_density`
/// values are non-increasing — a client can watch convergence live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressUpdate {
    /// Echo of the request id.
    pub id: u64,
    /// Diffusion steps completed so far.
    pub step: u64,
    /// Local-diffusion round the step belongs to (1 for global).
    pub round: u64,
    /// Computed total overflow over the target density after the step.
    pub overflow: f64,
    /// Cumulative cell movement since the job started.
    pub movement: f64,
    /// Maximum computed bin density after the step.
    pub max_density: f64,
}

/// Encodes a progress update into a frame payload.
pub fn encode_progress(p: &ProgressUpdate) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, p.id);
    put_u64(&mut buf, p.step);
    put_u64(&mut buf, p.round);
    put_f64(&mut buf, p.overflow);
    put_f64(&mut buf, p.movement);
    put_f64(&mut buf, p.max_density);
    buf
}

/// Decodes a progress-update frame payload.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] or [`WireError::Malformed`] on
/// corrupt payloads.
pub fn decode_progress(payload: &[u8]) -> Result<ProgressUpdate, WireError> {
    let mut cur = Cur::new(payload);
    let p = ProgressUpdate {
        id: cur.u64("progress.id")?,
        step: cur.u64("progress.step")?,
        round: cur.u64("progress.round")?,
        overflow: cur.f64("progress.overflow")?,
        movement: cur.f64("progress.movement")?,
        max_density: cur.f64("progress.max_density")?,
    };
    cur.finish("progress")?;
    Ok(p)
}

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

/// An on-demand snapshot of server metrics, answering a
/// [`FrameKind::StatsRequest`] with a [`FrameKind::Stats`] frame.
///
/// Counters cover the server's whole lifetime; the histograms are the
/// queue-wait, service and end-to-end latency distributions of finished
/// requests, and `kernels` merges the kernel timings of every completed
/// diffusion run.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Requests currently waiting in the bounded queue.
    pub queue_depth: u64,
    /// Request frames read off connections.
    pub received: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests rejected because the queue was full.
    pub overloaded: u64,
    /// Requests rejected for invalid diffusion parameters.
    pub invalid_config: u64,
    /// Frames that failed to decode.
    pub malformed: u64,
    /// Requests whose deadline expired (queued or mid-run).
    pub deadline_expired: u64,
    /// Requests rejected during shutdown.
    pub rejected_shutdown: u64,
    /// Worker panics converted to internal-error replies.
    pub internal_errors: u64,
    /// Progress frames streamed to clients.
    pub progress_frames: u64,
    /// Queue-wait latency distribution, nanoseconds.
    pub queue_hist: HistogramSnapshot,
    /// Service (diffusion run) latency distribution, nanoseconds.
    pub service_hist: HistogramSnapshot,
    /// End-to-end (admission → reply written) latency distribution,
    /// nanoseconds.
    pub e2e_hist: HistogramSnapshot,
    /// Kernel timings merged across every completed run.
    pub kernels: KernelTimers,
}

fn put_histogram(buf: &mut Vec<u8>, h: &HistogramSnapshot) {
    put_u32(buf, h.bounds.len() as u32);
    for &b in &h.bounds {
        put_u64(buf, b);
    }
    for &c in &h.counts {
        put_u64(buf, c);
    }
    put_u64(buf, h.count);
    put_u64(buf, h.sum);
    put_u64(buf, h.max);
}

fn take_histogram(cur: &mut Cur<'_>) -> Result<HistogramSnapshot, WireError> {
    let n = cur.u32("histogram.bounds.count")? as usize;
    // Each bound is 8 bytes; reject before allocating on absurd counts.
    if n > 4096 {
        return Err(malformed(
            "histogram",
            format!("{n} buckets exceeds the cap of 4096"),
        ));
    }
    let mut bounds = Vec::with_capacity(n);
    for _ in 0..n {
        bounds.push(cur.u64("histogram.bound")?);
    }
    if !bounds.windows(2).all(|w| w[0] < w[1]) {
        return Err(malformed("histogram", "bounds not strictly increasing"));
    }
    let mut counts = Vec::with_capacity(n + 1);
    for _ in 0..n + 1 {
        counts.push(cur.u64("histogram.count")?);
    }
    Ok(HistogramSnapshot {
        bounds,
        counts,
        count: cur.u64("histogram.total")?,
        sum: cur.u64("histogram.sum")?,
        max: cur.u64("histogram.max")?,
    })
}

fn put_kernel_timing(buf: &mut Vec<u8>, t: &KernelTiming) {
    put_u64(buf, t.calls);
    put_u64(buf, t.serial_ns);
    put_u64(buf, t.parallel_ns);
    put_u64(buf, t.max_threads as u64);
}

fn take_kernel_timing(cur: &mut Cur<'_>) -> Result<KernelTiming, WireError> {
    Ok(KernelTiming {
        calls: cur.u64("kernel.calls")?,
        serial_ns: cur.u64("kernel.serial_ns")?,
        parallel_ns: cur.u64("kernel.parallel_ns")?,
        max_threads: cur.u64("kernel.max_threads")? as usize,
    })
}

/// Encodes a stats snapshot into a frame payload.
pub fn encode_stats(s: &StatsSnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, s.queue_depth);
    put_u64(&mut buf, s.received);
    put_u64(&mut buf, s.admitted);
    put_u64(&mut buf, s.served);
    put_u64(&mut buf, s.overloaded);
    put_u64(&mut buf, s.invalid_config);
    put_u64(&mut buf, s.malformed);
    put_u64(&mut buf, s.deadline_expired);
    put_u64(&mut buf, s.rejected_shutdown);
    put_u64(&mut buf, s.internal_errors);
    put_u64(&mut buf, s.progress_frames);
    put_histogram(&mut buf, &s.queue_hist);
    put_histogram(&mut buf, &s.service_hist);
    put_histogram(&mut buf, &s.e2e_hist);
    put_kernel_timing(&mut buf, &s.kernels.ftcs);
    put_kernel_timing(&mut buf, &s.kernels.velocity);
    put_kernel_timing(&mut buf, &s.kernels.advect);
    put_kernel_timing(&mut buf, &s.kernels.splat);
    buf
}

/// Decodes a stats-snapshot frame payload.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] or [`WireError::Malformed`] on
/// corrupt payloads.
pub fn decode_stats(payload: &[u8]) -> Result<StatsSnapshot, WireError> {
    let mut cur = Cur::new(payload);
    let s = StatsSnapshot {
        queue_depth: cur.u64("stats.queue_depth")?,
        received: cur.u64("stats.received")?,
        admitted: cur.u64("stats.admitted")?,
        served: cur.u64("stats.served")?,
        overloaded: cur.u64("stats.overloaded")?,
        invalid_config: cur.u64("stats.invalid_config")?,
        malformed: cur.u64("stats.malformed")?,
        deadline_expired: cur.u64("stats.deadline_expired")?,
        rejected_shutdown: cur.u64("stats.rejected_shutdown")?,
        internal_errors: cur.u64("stats.internal_errors")?,
        progress_frames: cur.u64("stats.progress_frames")?,
        queue_hist: take_histogram(&mut cur)?,
        service_hist: take_histogram(&mut cur)?,
        e2e_hist: take_histogram(&mut cur)?,
        kernels: KernelTimers {
            ftcs: take_kernel_timing(&mut cur)?,
            velocity: take_kernel_timing(&mut cur)?,
            advect: take_kernel_timing(&mut cur)?,
            splat: take_kernel_timing(&mut cur)?,
        },
    };
    cur.finish("stats")?;
    Ok(s)
}

// ---------------------------------------------------------------------------
// Error reply.
// ---------------------------------------------------------------------------

/// Why the server could not produce a [`JobResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The bounded request queue was full — explicit backpressure; retry
    /// later or slow down.
    Overloaded,
    /// [`DiffusionConfig::validate`] rejected the request's parameters.
    InvalidConfig,
    /// The request payload did not decode.
    Malformed,
    /// The deadline expired before the run finished. `steps`/`rounds` in
    /// the reply report the partial progress made before cancellation.
    DeadlineExpired,
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The worker failed unexpectedly.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::InvalidConfig => 2,
            ErrorCode::Malformed => 3,
            ErrorCode::DeadlineExpired => 4,
            ErrorCode::ShuttingDown => 5,
            ErrorCode::Internal => 6,
        }
    }

    fn from_u8(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(ErrorCode::Overloaded),
            2 => Ok(ErrorCode::InvalidConfig),
            3 => Ok(ErrorCode::Malformed),
            4 => Ok(ErrorCode::DeadlineExpired),
            5 => Ok(ErrorCode::ShuttingDown),
            6 => Ok(ErrorCode::Internal),
            k => Err(malformed("error.code", format!("unknown error code {k}"))),
        }
    }

    /// Stable lower-snake name used in the JSONL request log.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::InvalidConfig => "invalid_config",
            ErrorCode::Malformed => "malformed",
            ErrorCode::DeadlineExpired => "deadline_expired",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A rejection or failure reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReply {
    /// Echo of the request id (`0` when the request never decoded).
    pub id: u64,
    /// What went wrong.
    pub code: ErrorCode,
    /// Diffusion steps completed before failure (partial progress for
    /// [`ErrorCode::DeadlineExpired`], otherwise 0).
    pub steps: u64,
    /// Rounds completed before failure.
    pub rounds: u64,
    /// Human-readable detail.
    pub message: String,
}

/// Encodes an error reply into a frame payload.
pub fn encode_error(err: &ErrorReply) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, err.id);
    put_u8(&mut buf, err.code.to_u8());
    put_u64(&mut buf, err.steps);
    put_u64(&mut buf, err.rounds);
    put_str(&mut buf, &err.message);
    buf
}

/// Decodes an error-reply frame payload.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] or [`WireError::Malformed`] on
/// corrupt payloads.
pub fn decode_error(payload: &[u8]) -> Result<ErrorReply, WireError> {
    let mut cur = Cur::new(payload);
    let id = cur.u64("error.id")?;
    let code = ErrorCode::from_u8(cur.u8("error.code")?)?;
    let steps = cur.u64("error.steps")?;
    let rounds = cur.u64("error.rounds")?;
    let message = cur.str_("error.message")?;
    cur.finish("error")?;
    Ok(ErrorReply {
        id,
        code,
        steps,
        rounds,
        message,
    })
}

// ---------------------------------------------------------------------------
// Content-hashed designs (wire v3).
// ---------------------------------------------------------------------------

/// FNV-1a over `bytes` — the content hash that names cached designs.
///
/// Deliberately the same hash family as the CI golden placement
/// checksum: dependency-free, deterministic, and stable across runs and
/// platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Encodes a design (netlist + die + placement) into the canonical
/// binary byte string both sides hash. This is exactly the binary
/// design payload of a [`JobRequest`], so `f64` values are bit
/// patterns and the encoding round-trips exactly.
pub fn encode_design_bytes(netlist: &Netlist, die: &Die, placement: &Placement) -> Vec<u8> {
    let mut buf = Vec::new();
    put_binary_design(&mut buf, netlist, die, placement);
    buf
}

/// Decodes the canonical design byte string produced by
/// [`encode_design_bytes`].
///
/// # Errors
///
/// Returns [`WireError::Truncated`] / [`WireError::Malformed`] on
/// corrupt bytes; never panics.
pub fn decode_design_bytes(bytes: &[u8]) -> Result<(Netlist, Die, Placement), WireError> {
    let mut cur = Cur::new(bytes);
    let design = take_binary_design(&mut cur)?;
    cur.finish("design")?;
    Ok(design)
}

/// The FNV-1a content hash of a design's canonical byte encoding — the
/// key a [`DeltaJobRequest`](crate::delta::DeltaJobRequest) names its
/// baseline by.
pub fn design_hash(netlist: &Netlist, die: &Die, placement: &Placement) -> u64 {
    fnv1a64(&encode_design_bytes(netlist, die, placement))
}

/// A full design upload (client → server, wire v3): populates the
/// server's content-hash design cache so later requests can ship only
/// ECO deltas against it.
#[derive(Debug, Clone)]
pub struct PutDesign {
    /// Client-chosen correlation id, echoed in the [`DesignAck`].
    pub id: u64,
    /// Tenant this upload (and its cache residency) is accounted to.
    pub tenant: String,
    /// The canonical design byte string ([`encode_design_bytes`]); the
    /// server stores the parsed design under `fnv1a64(bytes)`.
    pub bytes: Vec<u8>,
}

/// Encodes a design upload into a frame payload.
pub fn encode_put_design(put: &PutDesign) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, put.id);
    put_str(&mut buf, &put.tenant);
    buf.extend_from_slice(&put.bytes);
    buf
}

/// Decodes a design-upload frame payload.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] / [`WireError::Malformed`] on
/// corrupt payloads.
pub fn decode_put_design(payload: &[u8]) -> Result<PutDesign, WireError> {
    let mut cur = Cur::new(payload);
    let id = cur.u64("put_design.id")?;
    let tenant = cur.str_("put_design.tenant")?;
    let bytes = payload[cur.pos..].to_vec();
    Ok(PutDesign { id, tenant, bytes })
}

/// The server's answer to a [`PutDesign`] (wire v3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignAck {
    /// Echo of the upload id.
    pub id: u64,
    /// Content hash the design is now cached under.
    pub hash: u64,
    /// Whether the design is resident after this upload (`false` only
    /// when it alone exceeds the cache's byte budget).
    pub cached: bool,
    /// Bytes resident in the cache after this upload.
    pub resident_bytes: u64,
    /// Designs evicted to make room for this upload.
    pub evicted: u32,
}

/// Encodes a design ack into a frame payload.
pub fn encode_design_ack(ack: &DesignAck) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, ack.id);
    put_u64(&mut buf, ack.hash);
    put_u8(&mut buf, ack.cached as u8);
    put_u64(&mut buf, ack.resident_bytes);
    put_u32(&mut buf, ack.evicted);
    buf
}

/// Decodes a design-ack frame payload.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] / [`WireError::Malformed`] on
/// corrupt payloads.
pub fn decode_design_ack(payload: &[u8]) -> Result<DesignAck, WireError> {
    let mut cur = Cur::new(payload);
    let ack = DesignAck {
        id: cur.u64("design_ack.id")?,
        hash: cur.u64("design_ack.hash")?,
        cached: cur.u8("design_ack.cached")? != 0,
        resident_bytes: cur.u64("design_ack.resident_bytes")?,
        evicted: cur.u32("design_ack.evicted")?,
    };
    cur.finish("design_ack")?;
    Ok(ack)
}

/// A typed cache-miss reply (server → client, wire v3): the baseline a
/// delta request named is not resident. The client uploads it with a
/// [`PutDesign`] and resends the delta request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeedDesign {
    /// Echo of the delta request id.
    pub id: u64,
    /// The baseline hash the server does not have.
    pub hash: u64,
}

/// Encodes a cache-miss reply into a frame payload.
pub fn encode_need_design(nd: &NeedDesign) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, nd.id);
    put_u64(&mut buf, nd.hash);
    buf
}

/// Decodes a cache-miss frame payload.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] / [`WireError::Malformed`] on
/// corrupt payloads.
pub fn decode_need_design(payload: &[u8]) -> Result<NeedDesign, WireError> {
    let mut cur = Cur::new(payload);
    let nd = NeedDesign {
        id: cur.u64("need_design.id")?,
        hash: cur.u64("need_design.hash")?,
    };
    cur.finish("need_design")?;
    Ok(nd)
}

/// Either reply a server can send for a request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The run finished; here is the legalized placement.
    Ok(JobResponse),
    /// The request was rejected or failed.
    Rejected(ErrorReply),
}

impl Reply {
    /// Decodes a reply from a received frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] if the frame is not a terminal
    /// reply (a request, a mid-job progress frame, or a stats frame),
    /// or any decode error from the payload.
    pub fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        match frame.kind {
            FrameKind::Response => Ok(Reply::Ok(decode_response(&frame.payload)?)),
            FrameKind::Error => Ok(Reply::Rejected(decode_error(&frame.payload)?)),
            FrameKind::Request => Err(malformed("reply", "unexpected request frame")),
            FrameKind::Progress => Err(malformed("reply", "progress frame is not terminal")),
            FrameKind::StatsRequest | FrameKind::Stats => {
                Err(malformed("reply", "stats frame is not a job reply"))
            }
            FrameKind::PutDesign | FrameKind::DeltaRequest => Err(malformed(
                "reply",
                "control-plane request frame is not a reply",
            )),
            FrameKind::DesignAck => Err(malformed("reply", "design ack is not a job reply")),
            FrameKind::NeedDesign => Err(malformed(
                "reply",
                "NeedDesign is not terminal: upload the baseline and resend",
            )),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn tiny_request(kind: JobKind) -> JobRequest {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 4.0, 12.0, CellKind::Movable);
        let c = b.add_cell("c", 6.0, 12.0, CellKind::Movable);
        let m = b.add_cell("m", 24.0, 24.0, CellKind::FixedMacro);
        let n = b.add_net("n1");
        b.connect(a, n, PinDir::Output, 2.0, 6.0);
        b.connect(c, n, PinDir::Input, 0.0, 6.0);
        let netlist = b.build().expect("valid");
        let die = Die::new(96.0, 96.0, 12.0);
        let mut placement = Placement::new(netlist.num_cells());
        placement.set(a, Point::new(10.5, 12.0));
        placement.set(c, Point::new(11.25, 12.0));
        placement.set(m, Point::new(48.0, 48.0));
        JobRequest {
            id: 77,
            deadline_ms: 250,
            progress_stride: 0,
            kind,
            design: "tiny".into(),
            config: DiffusionConfig::default().with_bin_size(24.0),
            netlist,
            die,
            placement,
            vol: None,
            trace: None,
        }
    }

    #[test]
    fn binary_request_round_trip_is_exact() {
        let req = tiny_request(JobKind::Local);
        let payload = encode_request(&req, PayloadEncoding::Binary);
        let back = decode_request(&payload).expect("decodes");
        assert_eq!(back.id, 77);
        assert_eq!(back.deadline_ms, 250);
        assert_eq!(back.progress_stride, 0);
        assert_eq!(back.design, "tiny");
        assert_eq!(back.kind, JobKind::Local);
        assert_eq!(back.config, req.config);
        assert_eq!(back.netlist.num_cells(), 3);
        assert_eq!(back.netlist.num_nets(), 1);
        assert_eq!(back.netlist.num_pins(), 2);
        assert_eq!(back.netlist.macro_ids().count(), 1);
        for c in req.netlist.cell_ids() {
            let (p0, p1) = (req.placement.get(c), back.placement.get(c));
            assert_eq!(p0.x.to_bits(), p1.x.to_bits());
            assert_eq!(p0.y.to_bits(), p1.y.to_bits());
            assert_eq!(req.netlist.cell(c).name, back.netlist.cell(c).name);
        }
        assert_eq!(req.die.outline(), back.die.outline());
    }

    /// The two f32 request payloads that encoders emitted before the
    /// field precision was removed (a planar one and one stacking vol,
    /// exact-steps and trace extensions), committed as fixture bytes.
    pub(crate) const LEGACY_F32_FRAMES: [&[u8]; 2] = [
        include_bytes!("../tests/fixtures/wire/v3_request_f32_planar.bin"),
        include_bytes!("../tests/fixtures/wire/v3_request_f32_stacked.bin"),
    ];

    fn assert_ext_malformed(frame: &[u8]) {
        let got = decode_request(frame);
        assert!(
            matches!(
                got,
                Err(WireError::Malformed {
                    context: "request.ext",
                    ..
                })
            ),
            "{got:?}"
        );
    }

    #[test]
    fn legacy_f32_planar_frame_is_malformed() {
        assert_ext_malformed(LEGACY_F32_FRAMES[0]);
    }

    #[test]
    fn legacy_f32_stacked_frame_is_malformed() {
        let stacked = LEGACY_F32_FRAMES[1];
        assert_ext_malformed(stacked);
        // Any precision byte value, and the frame without it, too.
        for last in [0u8, 7] {
            let mut frame = stacked.to_vec();
            *frame.last_mut().expect("non-empty") = last;
            assert_ext_malformed(&frame);
        }
        assert_ext_malformed(&stacked[..stacked.len() - 1]);
    }

    #[test]
    fn bookshelf_request_round_trip_preserves_positions() {
        let req = tiny_request(JobKind::Global);
        let payload = encode_request(&req, PayloadEncoding::Bookshelf);
        let back = decode_request(&payload).expect("decodes");
        assert_eq!(back.kind, JobKind::Global);
        assert_eq!(back.netlist.num_cells(), req.netlist.num_cells());
        // Display-formatted f64 round-trips exactly in Rust.
        for c in req.netlist.cell_ids() {
            let (p0, p1) = (req.placement.get(c), back.placement.get(c));
            assert_eq!(p0.x.to_bits(), p1.x.to_bits());
            assert_eq!(p0.y.to_bits(), p1.y.to_bits());
        }
    }

    #[test]
    fn response_round_trip() {
        let resp = JobResponse {
            id: 9,
            converged: true,
            steps: 42,
            rounds: 3,
            total_movement: 123.456,
            max_movement: 7.25,
            queue_ns: 1000,
            service_ns: 2000,
            positions: vec![Point::new(1.5, -2.5), Point::new(0.0, f64::MAX)],
            vol: None,
            spans: Vec::new(),
        };
        let back = decode_response(&encode_response(&resp)).expect("decodes");
        assert_eq!(back, resp);
    }

    #[test]
    fn error_round_trip() {
        let err = ErrorReply {
            id: 3,
            code: ErrorCode::DeadlineExpired,
            steps: 17,
            rounds: 2,
            message: "deadline of 50ms expired".into(),
        };
        let back = decode_error(&encode_error(&err)).expect("decodes");
        assert_eq!(back, err);
    }

    #[test]
    fn progress_round_trip() {
        let p = ProgressUpdate {
            id: 12,
            step: 340,
            round: 3,
            overflow: 0.75,
            movement: 1234.5,
            max_density: 1.03125,
        };
        let back = decode_progress(&encode_progress(&p)).expect("decodes");
        assert_eq!(back, p);
        // Bit-identical f64 travel.
        assert_eq!(back.max_density.to_bits(), p.max_density.to_bits());
    }

    #[test]
    fn stats_round_trip() {
        let mut queue_hist = dpm_obs::Histogram::latency_default().snapshot();
        queue_hist.counts[0] = 3;
        queue_hist.count = 3;
        queue_hist.sum = 2_500;
        queue_hist.max = 900;
        let mut kernels = KernelTimers::default();
        kernels.ftcs.record(std::time::Duration::from_micros(7), 4);
        let s = StatsSnapshot {
            queue_depth: 2,
            received: 100,
            admitted: 90,
            served: 80,
            overloaded: 5,
            invalid_config: 2,
            malformed: 3,
            deadline_expired: 6,
            rejected_shutdown: 1,
            internal_errors: 0,
            progress_frames: 42,
            queue_hist: queue_hist.clone(),
            service_hist: dpm_obs::Histogram::latency_default().snapshot(),
            e2e_hist: queue_hist,
            kernels,
        };
        let back = decode_stats(&encode_stats(&s)).expect("decodes");
        assert_eq!(back, s);
    }

    #[test]
    fn truncated_stats_errors_not_panics() {
        let s = StatsSnapshot {
            queue_depth: 0,
            received: 0,
            admitted: 0,
            served: 0,
            overloaded: 0,
            invalid_config: 0,
            malformed: 0,
            deadline_expired: 0,
            rejected_shutdown: 0,
            internal_errors: 0,
            progress_frames: 0,
            queue_hist: dpm_obs::Histogram::latency_default().snapshot(),
            service_hist: dpm_obs::Histogram::latency_default().snapshot(),
            e2e_hist: dpm_obs::Histogram::latency_default().snapshot(),
            kernels: KernelTimers::default(),
        };
        let payload = encode_stats(&s);
        for cut in 0..payload.len() {
            assert!(decode_stats(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let req = tiny_request(JobKind::Local);
        let payload = encode_request(&req, PayloadEncoding::Binary);
        let mut stream = Vec::new();
        write_frame(&mut stream, FrameKind::Request, &payload).expect("writes");
        write_frame(
            &mut stream,
            FrameKind::Error,
            &encode_error(&ErrorReply {
                id: 1,
                code: ErrorCode::Overloaded,
                steps: 0,
                rounds: 0,
                message: String::new(),
            }),
        )
        .expect("writes");

        let mut r = &stream[..];
        let f1 = read_frame(&mut r, DEFAULT_MAX_FRAME_LEN)
            .expect("reads")
            .expect("present");
        assert_eq!(f1.kind, FrameKind::Request);
        assert_eq!(f1.payload, payload);
        let f2 = read_frame(&mut r, DEFAULT_MAX_FRAME_LEN)
            .expect("reads")
            .expect("present");
        assert_eq!(f2.kind, FrameKind::Error);
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME_LEN)
            .expect("clean EOF")
            .is_none());
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        // Bad magic.
        let mut bad = Vec::new();
        write_frame(&mut bad, FrameKind::Error, &[]).expect("writes");
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut &bad[..], DEFAULT_MAX_FRAME_LEN),
            Err(WireError::BadMagic(_))
        ));

        // Future version.
        let mut bad = Vec::new();
        write_frame(&mut bad, FrameKind::Error, &[]).expect("writes");
        bad[4] = 99;
        assert!(matches!(
            read_frame(&mut &bad[..], DEFAULT_MAX_FRAME_LEN),
            Err(WireError::UnsupportedVersion(99))
        ));

        // Unknown kind.
        let mut bad = Vec::new();
        write_frame(&mut bad, FrameKind::Error, &[]).expect("writes");
        bad[6] = 42;
        assert!(matches!(
            read_frame(&mut &bad[..], DEFAULT_MAX_FRAME_LEN),
            Err(WireError::UnknownFrameKind(42))
        ));

        // Over-long payload vs cap.
        let mut big = Vec::new();
        write_frame(&mut big, FrameKind::Error, &[0u8; 128]).expect("writes");
        assert!(matches!(
            read_frame(&mut &big[..], 64),
            Err(WireError::FrameTooLarge { len: 128, max: 64 })
        ));
    }

    #[test]
    fn truncated_payloads_error_not_panic() {
        let req = tiny_request(JobKind::Global);
        let payload = encode_request(&req, PayloadEncoding::Binary);
        // Chop the payload at every length; each prefix must produce an
        // error — never panic. The single exception is stripping exactly
        // the trailing solver byte, which is by design a complete legacy
        // (pre-spectral) frame.
        for cut in 0..payload.len() {
            match decode_request(&payload[..cut]) {
                Err(_) => {}
                Ok(_) if cut == payload.len() - 1 => {}
                Ok(_) => panic!("truncated payload of {cut} bytes decoded"),
            }
        }
        assert!(decode_request(&payload).is_ok());
    }

    #[test]
    fn legacy_frame_without_solver_byte_decodes_as_ftcs() {
        // Back-compat pin: a v2 request frame that predates the solver
        // byte is exactly today's frame with the last byte stripped. It
        // must decode with `SolverKind::Ftcs` and every other field
        // bit-identical — so PR 2–4 era clients keep working unchanged.
        let mut req = tiny_request(JobKind::Local);
        req.config = req.config.with_solver(SolverKind::Spectral);
        let payload = encode_request(&req, PayloadEncoding::Binary);
        assert_eq!(
            *payload.last().expect("non-empty"),
            SolverKind::Spectral as u8,
            "solver byte must be the final payload byte"
        );

        let legacy = &payload[..payload.len() - 1];
        let back = decode_request(legacy).expect("legacy frame decodes");
        assert_eq!(back.config.solver, SolverKind::Ftcs);
        assert_eq!(
            back.config,
            req.config.with_solver(SolverKind::Ftcs),
            "all non-solver config fields survive the legacy path"
        );
        assert_eq!(back.id, req.id);
        assert_eq!(back.design, req.design);
        assert_eq!(back.kind, req.kind);

        // And the modern frame round-trips the spectral choice.
        let modern = decode_request(&payload).expect("decodes");
        assert_eq!(modern.config.solver, SolverKind::Spectral);

        // Unknown solver discriminants are malformed, not a panic.
        let mut bad = payload.clone();
        *bad.last_mut().expect("non-empty") = 7;
        assert!(matches!(
            decode_request(&bad),
            Err(WireError::Malformed {
                context: "request.solver",
                ..
            })
        ));
    }

    #[test]
    fn dimension_less_frame_decodes_byte_for_byte_as_a_2d_job() {
        // Back-compat pin for the volumetric era: the dimension block is
        // a pure suffix of the frame, so a planar request is the exact
        // byte prefix of its volumetric sibling, and a dimension-less
        // (pre-volumetric v3) frame decodes as a plain 2D job whose
        // re-encoding reproduces the original bytes.
        let mut req = tiny_request(JobKind::Global);
        let planar = encode_request(&req, PayloadEncoding::Binary);
        req.vol = Some(VolRequestExt {
            nz: 3,
            z0: 0,
            global_nz: 3,
            exact_steps: None,
            z: vec![0.5, 1.5, 2.5],
            field: None,
        });
        let volumetric = encode_request(&req, PayloadEncoding::Binary);
        assert!(volumetric.len() > planar.len());
        assert_eq!(
            &volumetric[..planar.len()],
            &planar[..],
            "the vol block must be a pure suffix of the planar frame"
        );

        let back = decode_request(&planar).expect("dimension-less frame decodes");
        assert!(back.vol.is_none(), "no trailing bytes means a 2D job");
        assert_eq!(
            encode_request(&back, PayloadEncoding::Binary),
            planar,
            "the 2D decode re-encodes byte-for-byte"
        );
    }

    #[test]
    fn volumetric_request_round_trip_is_exact() {
        let mut req = tiny_request(JobKind::Global);
        let field: Vec<f64> = (0..32).map(|i| f64::from(i) * 0.125 + 0.001).collect();
        req.vol = Some(VolRequestExt {
            nz: 2,
            z0: 1,
            global_nz: 4,
            exact_steps: Some(1),
            z: vec![1.5, 2.25, 3.0 + f64::EPSILON],
            field: Some(field),
        });
        let payload = encode_request(&req, PayloadEncoding::Binary);
        let back = decode_request(&payload).expect("decodes");
        let v0 = req.vol.as_ref().expect("sent");
        let v1 = back.vol.as_ref().expect("the vol extension survives");
        assert_eq!(v1.nz, 2);
        assert_eq!(v1.z0, 1);
        assert_eq!(v1.global_nz, 4);
        assert_eq!(v1.exact_steps, Some(1));
        assert_eq!(v0.z.len(), v1.z.len());
        for (a, b) in v0.z.iter().zip(&v1.z) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let f0 = v0.field.as_ref().expect("sent");
        let f1 = v1.field.as_ref().expect("the raw field survives");
        assert_eq!(f0.len(), f1.len());
        for (a, b) in f0.iter().zip(f1) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn volumetric_response_round_trip_is_exact() {
        let resp = JobResponse {
            id: 5,
            converged: false,
            steps: 7,
            rounds: 7,
            total_movement: 0.5,
            max_movement: 0.25,
            queue_ns: 10,
            service_ns: 20,
            positions: vec![Point::new(3.0, 4.0)],
            vol: Some(VolResponseExt {
                z: vec![0.5, 1.5, f64::MIN_POSITIVE],
                field: Some(vec![0.0, 1.0, 0.75, f64::MAX]),
            }),
            spans: Vec::new(),
        };
        let back = decode_response(&encode_response(&resp)).expect("decodes");
        assert_eq!(back, resp);

        // A planar reply stays byte-identical to the pre-volumetric
        // framing: it is the exact prefix of its volumetric sibling.
        let planar = JobResponse {
            vol: None,
            ..resp.clone()
        };
        let planar_bytes = encode_response(&planar);
        assert_eq!(
            &encode_response(&resp)[..planar_bytes.len()],
            &planar_bytes[..]
        );
    }

    #[test]
    fn malformed_vol_blocks_error_not_panic() {
        let mut req = tiny_request(JobKind::Global);
        req.vol = Some(VolRequestExt {
            nz: 2,
            z0: 0,
            global_nz: 2,
            exact_steps: None,
            z: vec![0.5, 1.0, 1.5],
            field: None,
        });
        let payload = encode_request(&req, PayloadEncoding::Binary);
        // With no exact-steps and no field the extension block is one VOL
        // record: tag(1) + len(4) + nz(4) + z0(4) + global_nz(4) + three
        // f64 depths.
        let ext_off = payload.len() - (1 + 4 + 4 + 4 + 4 + 3 * 8);

        // Unknown tags are malformed, not silently skipped.
        let mut bad = payload.clone();
        bad[ext_off] = 0x80;
        assert!(matches!(
            decode_request(&bad),
            Err(WireError::Malformed {
                context: "request.ext",
                ..
            })
        ));

        // A region poking outside the stack (z0 + nz > global_nz) is
        // malformed.
        let mut bad = payload.clone();
        let z0_off = ext_off + 1 + 4 + 4;
        bad[z0_off..z0_off + 4].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            decode_request(&bad),
            Err(WireError::Malformed { context: "vol", .. })
        ));

        // Every truncation inside the vol block errors — never panics,
        // and never decodes as a shorter volumetric frame.
        for cut in ext_off + 1..payload.len() {
            assert!(
                decode_request(&payload[..cut]).is_err(),
                "vol block truncated to {} bytes decoded",
                cut - ext_off
            );
        }
        // Cutting the whole block off leaves a valid planar frame.
        assert!(decode_request(&payload[..ext_off])
            .expect("planar prefix decodes")
            .vol
            .is_none());

        // Non-finite depths and field values are malformed: the engine
        // asserts on them.
        let depth = patch_f64(&payload, 1.5, f64::NAN);
        assert!(matches!(
            decode_request(&depth),
            Err(WireError::Malformed {
                context: "vol.z",
                ..
            })
        ));
        if let Some(v) = req.vol.as_mut() {
            v.field = Some(vec![0.25, 0.625]);
        }
        let payload = encode_request(&req, PayloadEncoding::Binary);
        let field = patch_f64(&payload, 0.625, f64::INFINITY);
        assert!(matches!(
            decode_request(&field),
            Err(WireError::Malformed {
                context: "vol.field",
                ..
            })
        ));
    }

    #[test]
    fn non_finite_response_values_are_malformed() {
        // A backend's reply feeds the router's stitch, so it is checked
        // like a request: positions, depths and field values are finite.
        let resp = JobResponse {
            id: 5,
            converged: true,
            steps: 1,
            rounds: 1,
            total_movement: 0.5,
            max_movement: 0.25,
            queue_ns: 10,
            service_ns: 20,
            positions: vec![Point::new(3.125, 4.0)],
            vol: Some(VolResponseExt {
                z: vec![0.375],
                field: Some(vec![0.5, 0.625]),
            }),
            spans: Vec::new(),
        };
        let payload = encode_response(&resp);
        decode_response(&payload).expect("the unpatched reply decodes");
        for (sentinel, context) in [
            (3.125, "response.position.x"),
            (0.375, "response.vol.z"),
            (0.625, "response.vol.field"),
        ] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let got = decode_response(&patch_f64(&payload, sentinel, bad));
                assert!(
                    matches!(got, Err(WireError::Malformed { context: c, .. }) if c == context),
                    "{context} = {bad}: {got:?}"
                );
            }
        }
    }

    /// Replaces the one little-endian occurrence of `sentinel` in
    /// `payload` with `value`.
    fn patch_f64(payload: &[u8], sentinel: f64, value: f64) -> Vec<u8> {
        let needle = sentinel.to_bits().to_le_bytes();
        let hits: Vec<usize> = payload
            .windows(8)
            .enumerate()
            .filter(|(_, w)| *w == needle)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 1, "sentinel {sentinel} must be unique");
        let mut out = payload.to_vec();
        out[hits[0]..hits[0] + 8].copy_from_slice(&value.to_bits().to_le_bytes());
        out
    }

    #[test]
    fn malformed_design_values_error_not_panic() {
        // Distinct sentinels locate every per-cell and per-pin value the
        // engines consume; each must arrive finite, in a request and in a
        // design upload alike.
        let mut b = NetlistBuilder::new();
        let a = b.add_cell_with_delay("a", 4.125, 12.25, CellKind::Movable, 0.375);
        let c = b.add_cell("c", 6.0, 12.0, CellKind::Movable);
        let n = b.add_net("n1");
        b.connect(a, n, PinDir::Output, 2.0625, 6.0625);
        b.connect(c, n, PinDir::Input, 0.0, 6.0);
        let mut req = tiny_request(JobKind::Local);
        req.netlist = b.build().expect("valid");
        req.placement = Placement::new(2);
        req.placement.set(a, Point::new(10.875, 17.125));
        req.placement.set(c, Point::new(30.0, 36.0));
        let payload = encode_request(&req, PayloadEncoding::Binary);
        let design = encode_design_bytes(&req.netlist, &req.die, &req.placement);
        decode_request(&payload).expect("the unpatched request decodes");
        decode_design_bytes(&design).expect("the unpatched design decodes");
        for (sentinel, context) in [
            (4.125, "cell.width"),
            (12.25, "cell.height"),
            (0.375, "cell.delay"),
            (10.875, "cell.x"),
            (17.125, "cell.y"),
            (2.0625, "pin.ox"),
            (6.0625, "pin.oy"),
        ] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let got = decode_request(&patch_f64(&payload, sentinel, bad));
                assert!(
                    matches!(got, Err(WireError::Malformed { context: c, .. }) if c == context),
                    "{context} = {bad} in a request: {got:?}"
                );
                let got = decode_design_bytes(&patch_f64(&design, sentinel, bad));
                assert!(
                    matches!(got, Err(WireError::Malformed { context: c, .. }) if c == context),
                    "{context} = {bad} in a design upload: {got:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_die_is_malformed_not_panic() {
        let mut req = tiny_request(JobKind::Global);
        req.config = DiffusionConfig::default();
        let mut payload = encode_request(&req, PayloadEncoding::Binary);
        // The die width field sits right after id(8) + deadline(4) +
        // progress_stride(4) + kind(1) + design("tiny" → 4+4) +
        // config(five f64 + max_steps u64 + two u8 flags + four u64
        // counters + f64 clamp + u8 flag + u64 threads) + encoding(1)
        // + llx(8) + lly(8).
        let config_len = 5 * 8 + 8 + 2 + 4 * 8 + 8 + 1 + 8;
        let die_width_off = 8 + 4 + 4 + 1 + (4 + 4) + config_len + 1 + 16;
        payload[die_width_off..die_width_off + 8]
            .copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::Malformed { context: "die", .. })
        ));
    }

    #[test]
    fn non_dyadic_row_heights_keep_their_row_count() {
        // Three rows of 0.7 end at 3 * 0.7 = 2.0999999999999996, which a
        // plain floor of height / row height reads back as two rows.
        let mut req = tiny_request(JobKind::Global);
        for (lly, rows) in [(0.0, 3), (0.1, 7), (10.3, 3)] {
            let height = f64::from(rows) * 0.7 + 0.1;
            req.die = Die::with_origin(0.0, lly, 96.0, height, 0.7);
            assert_eq!(req.die.num_rows(), rows as usize);
            let payload = encode_request(&req, PayloadEncoding::Binary);
            let back = decode_request(&payload).expect("decodes");
            assert_eq!(back.die.num_rows(), req.die.num_rows(), "lly {lly}");
            assert_eq!(back.die.outline(), req.die.outline(), "lly {lly}");
            assert_eq!(encode_request(&back, PayloadEncoding::Binary), payload);
        }
    }

    #[test]
    fn die_that_does_not_rebuild_from_its_outline_is_malformed() {
        // At lly = 1e300 the die's height vanishes in `lly + height`, so
        // the decoded die would re-encode as 96x0 and fail the next hop.
        let req = tiny_request(JobKind::Global);
        let mut payload = encode_request(&req, PayloadEncoding::Binary);
        let config_len = 5 * 8 + 8 + 2 + 4 * 8 + 8 + 1 + 8;
        let lly_off = 8 + 4 + 4 + 1 + (4 + 4) + config_len + 1 + 8;
        payload[lly_off..lly_off + 8].copy_from_slice(&1e300f64.to_bits().to_le_bytes());
        let got = decode_request(&payload);
        assert!(
            matches!(got, Err(WireError::Malformed { context: "die", .. })),
            "{got:?}"
        );
    }

    #[test]
    fn die_whose_rebuild_overflows_is_malformed() {
        // Finite wire values whose rebuilt outline overflows to infinity:
        // a row height past f64::MAX / 1.5 (so the rebuild height, and
        // with it the row count, is infinite) and an origin plus width
        // past f64::MAX.
        let req = tiny_request(JobKind::Global);
        let payload = encode_request(&req, PayloadEncoding::Binary);
        let config_len = 5 * 8 + 8 + 2 + 4 * 8 + 8 + 1 + 8;
        // The die's f64s in order: llx, lly, width, height, row height.
        let die_off = 8 + 4 + 4 + 1 + (4 + 4) + config_len + 1;
        let patches: [&[(usize, f64)]; 2] = [
            &[(3, 1.6e308), (4, 1.5e308)], // height, row height
            &[(0, 1e308), (2, 1.5e308)],   // llx, width
        ];
        for patch in patches {
            let mut p = payload.clone();
            for &(field, v) in patch {
                let off = die_off + 8 * field;
                p[off..off + 8].copy_from_slice(&v.to_bits().to_le_bytes());
            }
            let got = decode_request(&p);
            assert!(
                matches!(got, Err(WireError::Malformed { context: "die", .. })),
                "{patch:?}: {got:?}"
            );
        }
    }

    #[test]
    fn pin_referencing_missing_cell_is_malformed() {
        let req = tiny_request(JobKind::Global);
        let payload = encode_request(&req, PayloadEncoding::Binary);
        // Find the first pin's cell index (value 0 as u32 after the net
        // name + pin count); rather than hand-compute the offset, corrupt
        // every aligned u32 equal to 0 near the tail and require that at
        // least one corruption yields a Malformed pin error and none
        // panic.
        let mut saw_pin_error = false;
        for off in (payload.len() - 80)..(payload.len() - 4) {
            let mut p = payload.clone();
            p[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            match decode_request(&p) {
                Err(WireError::Malformed { context, .. })
                    if context == "pin.cell" || context == "netlist" =>
                {
                    saw_pin_error = true;
                }
                _ => {}
            }
        }
        assert!(saw_pin_error, "no corruption hit the pin cell index");
    }

    #[test]
    fn assembler_parses_frames_split_at_every_byte_boundary() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, FrameKind::StatsRequest, &[]).expect("write");
        write_frame(&mut bytes, FrameKind::Progress, &[1, 2, 3, 4, 5]).expect("write");
        for split in 0..bytes.len() {
            let mut asm = FrameAssembler::new();
            asm.push(&bytes[..split]);
            let mut frames = Vec::new();
            while let Some(f) = asm.next_frame(DEFAULT_MAX_FRAME_LEN).expect("no error") {
                frames.push(f);
            }
            asm.push(&bytes[split..]);
            while let Some(f) = asm.next_frame(DEFAULT_MAX_FRAME_LEN).expect("no error") {
                frames.push(f);
            }
            assert_eq!(frames.len(), 2, "split at {split}");
            assert_eq!(frames[0].kind, FrameKind::StatsRequest);
            assert_eq!(frames[0].version, VERSION);
            assert_eq!(frames[1].kind, FrameKind::Progress);
            assert_eq!(frames[1].payload, vec![1, 2, 3, 4, 5]);
            assert_eq!(asm.pending(), 0);
        }
    }

    #[test]
    fn assembler_byte_at_a_time_many_frames_stays_bounded() {
        let mut bytes = Vec::new();
        for i in 0..64u8 {
            write_frame(&mut bytes, FrameKind::Progress, &[i; 200]).expect("write");
        }
        let mut asm = FrameAssembler::new();
        let mut got = 0u8;
        for &b in &bytes {
            asm.push(&[b]);
            while let Some(f) = asm.next_frame(DEFAULT_MAX_FRAME_LEN).expect("no error") {
                assert_eq!(f.payload, vec![got; 200]);
                got += 1;
            }
        }
        assert_eq!(got, 64);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn assembler_rejects_bad_magic_and_oversize() {
        let mut asm = FrameAssembler::new();
        asm.push(b"XXXX\x02\x00\x00\x00\x00\x00\x00");
        assert!(matches!(
            asm.next_frame(DEFAULT_MAX_FRAME_LEN),
            Err(WireError::BadMagic(_))
        ));

        let mut asm = FrameAssembler::new();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, FrameKind::Progress, &[0u8; 100]).expect("write");
        asm.push(&bytes);
        assert!(matches!(
            asm.next_frame(10),
            Err(WireError::FrameTooLarge { len: 100, max: 10 })
        ));
    }

    #[test]
    fn v2_header_still_decodes_and_version_is_reported() {
        let mut bytes = Vec::new();
        write_frame_versioned(&mut bytes, 2, FrameKind::StatsRequest, &[]).expect("write");
        let frame = read_frame(&mut &bytes[..], DEFAULT_MAX_FRAME_LEN)
            .expect("reads")
            .expect("some");
        assert_eq!(frame.version, 2);
        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        let frame = asm
            .next_frame(DEFAULT_MAX_FRAME_LEN)
            .expect("ok")
            .expect("some");
        assert_eq!(frame.version, 2);

        // Below MIN_VERSION is rejected.
        let mut bytes = Vec::new();
        write_frame_versioned(&mut bytes, 1, FrameKind::StatsRequest, &[]).expect("write");
        assert!(matches!(
            read_frame(&mut &bytes[..], DEFAULT_MAX_FRAME_LEN),
            Err(WireError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn design_bytes_round_trip_and_hash_are_stable() {
        let req = tiny_request(JobKind::Global);
        let bytes = encode_design_bytes(&req.netlist, &req.die, &req.placement);
        let (nl, die, pl) = decode_design_bytes(&bytes).expect("decodes");
        assert_eq!(nl.num_cells(), req.netlist.num_cells());
        assert_eq!(die.outline().urx.to_bits(), req.die.outline().urx.to_bits());
        for c in req.netlist.cell_ids() {
            assert_eq!(pl.get(c).x.to_bits(), req.placement.get(c).x.to_bits());
            assert_eq!(pl.get(c).y.to_bits(), req.placement.get(c).y.to_bits());
        }
        // The hash of the re-encoded decode is the hash of the original:
        // the canonical encoding is a fixed point.
        let h1 = design_hash(&req.netlist, &req.die, &req.placement);
        let h2 = design_hash(&nl, &die, &pl);
        assert_eq!(h1, h2);
        assert_eq!(h1, fnv1a64(&bytes));
        // Trailing garbage is rejected.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode_design_bytes(&longer).is_err());
    }

    #[test]
    fn put_design_round_trip() {
        let req = tiny_request(JobKind::Global);
        let put = PutDesign {
            id: 42,
            tenant: "acme".into(),
            bytes: encode_design_bytes(&req.netlist, &req.die, &req.placement),
        };
        let payload = encode_put_design(&put);
        let back = decode_put_design(&payload).expect("decodes");
        assert_eq!(back.id, 42);
        assert_eq!(back.tenant, "acme");
        assert_eq!(back.bytes, put.bytes);
        assert!(decode_design_bytes(&back.bytes).is_ok());
    }

    #[test]
    fn design_ack_and_need_design_round_trip() {
        let ack = DesignAck {
            id: 9,
            hash: 0xdead_beef_cafe_f00d,
            cached: true,
            resident_bytes: 123_456,
            evicted: 3,
        };
        let back = decode_design_ack(&encode_design_ack(&ack)).expect("decodes");
        assert_eq!(back, ack);

        let nd = NeedDesign {
            id: 9,
            hash: 0xdead_beef_cafe_f00d,
        };
        let back = decode_need_design(&encode_need_design(&nd)).expect("decodes");
        assert_eq!(back, nd);

        // Truncated payloads are typed errors, not panics.
        assert!(decode_design_ack(&encode_design_ack(&ack)[..10]).is_err());
        assert!(decode_need_design(&[0u8; 7]).is_err());
    }

    #[test]
    fn traced_request_is_a_pure_suffix_of_the_legacy_frame() {
        let mut req = tiny_request(JobKind::Local);
        let legacy = encode_request(&req, PayloadEncoding::Binary);

        req.trace = Some(TraceContext {
            trace_id: 0x1111_2222_3333_4444,
            span_id: 0x5555_6666_7777_8888,
            parent_id: 0,
        });
        let traced = encode_request(&req, PayloadEncoding::Binary);

        // Trace context rides as one TRACE record (tag, len, 24-byte
        // context) after everything a legacy decoder reads: the untraced
        // frame is byte-for-byte a prefix of the traced one.
        assert_eq!(traced.len(), legacy.len() + 1 + 4 + 24);
        assert_eq!(&traced[..legacy.len()], &legacy[..]);

        let back = decode_request(&traced).expect("traced frame decodes");
        assert_eq!(back.trace, req.trace);
        assert!(back.vol.is_none());
        // And the legacy bytes still decode as an untraced job.
        assert_eq!(decode_request(&legacy).expect("legacy decodes").trace, None);
    }

    #[test]
    fn traced_volumetric_request_round_trip_is_exact() {
        let mut req = tiny_request(JobKind::Global);
        req.vol = Some(VolRequestExt {
            nz: 3,
            z0: 0,
            global_nz: 3,
            exact_steps: None,
            z: vec![0.5, 1.5, 2.5],
            field: None,
        });
        let untraced = encode_request(&req, PayloadEncoding::Binary);
        req.trace = Some(TraceContext {
            trace_id: 7,
            span_id: 8,
            parent_id: 9,
        });
        let traced = encode_request(&req, PayloadEncoding::Binary);
        // One more record after the VOL record: tag, len, 24 bytes.
        assert_eq!(traced.len(), untraced.len() + 1 + 4 + 24);
        assert_eq!(&traced[..untraced.len()], &untraced[..]);
        let back = decode_request(&traced).expect("decodes");
        assert_eq!(back.trace, req.trace);
        assert_eq!(back.vol, req.vol);
    }

    #[test]
    fn malformed_trace_blocks_error_not_panic() {
        let mut req = tiny_request(JobKind::Local);
        req.trace = Some(TraceContext {
            trace_id: 1,
            span_id: 2,
            parent_id: 3,
        });
        let payload = encode_request(&req, PayloadEncoding::Binary);
        let ext_off = payload.len() - (1 + 4 + 24);
        let ext_malformed = |bad: &[u8]| {
            matches!(
                decode_request(bad),
                Err(WireError::Malformed {
                    context: "request.ext",
                    ..
                })
            )
        };

        // The all-zero context never appears on the wire.
        let mut bad = payload.clone();
        bad[ext_off + 5..].fill(0);
        assert!(matches!(
            decode_request(&bad),
            Err(WireError::Malformed {
                context: "trace",
                ..
            })
        ));

        // Unknown tags are malformed, not silently skipped: every legacy
        // flags byte (0x10 is the retired f32 precision bit), a response
        // tag, and tags above the table.
        for unknown in (0x00..0x20).chain([0x24, 0x80, 0xFF]) {
            let mut bad = payload.clone();
            bad[ext_off] = unknown;
            assert!(ext_malformed(&bad), "tag {unknown:#x}");
        }

        // A repeated record is malformed: tags strictly ascend.
        let mut twice = payload.clone();
        twice.extend_from_slice(&payload[ext_off..]);
        assert!(ext_malformed(&twice));

        // A body longer than the record's fields is malformed.
        let mut long = payload.clone();
        long[ext_off + 1..ext_off + 5].copy_from_slice(&25u32.to_le_bytes());
        long.push(0);
        assert!(ext_malformed(&long));

        // Every truncation inside the trace block errors, never panics.
        for cut in ext_off + 1..payload.len() {
            assert!(
                decode_request(&payload[..cut]).is_err(),
                "trace block truncated to {} bytes decoded",
                cut - ext_off
            );
        }
        // Cutting the whole extension off leaves a valid untraced frame.
        assert!(decode_request(&payload[..ext_off])
            .expect("untraced prefix decodes")
            .trace
            .is_none());
    }

    #[test]
    fn span_export_round_trip_and_legacy_prefix() {
        let bare = JobResponse {
            id: 5,
            converged: true,
            steps: 10,
            rounds: 1,
            total_movement: 1.0,
            max_movement: 0.5,
            queue_ns: 7,
            service_ns: 11,
            positions: vec![Point::new(1.0, 2.0)],
            vol: None,
            spans: Vec::new(),
        };
        let legacy = encode_response(&bare);

        let mut traced = bare.clone();
        traced.spans = vec![
            SpanRecord {
                name: "job.local".into(),
                start_ns: 0,
                end_ns: 500,
                trace_id: 0xABCD,
                span_id: 2,
                parent_id: 1,
            },
            SpanRecord {
                name: "kernel.ftcs \"quoted\"\n".into(),
                start_ns: 10,
                end_ns: 20,
                trace_id: 0xABCD,
                span_id: 3,
                parent_id: 2,
            },
        ];
        let payload = encode_response(&traced);
        // The span export is a pure suffix after the untraced bytes.
        assert!(payload.len() > legacy.len());
        assert_eq!(&payload[..legacy.len()], &legacy[..]);
        let back = decode_response(&payload).expect("decodes");
        assert_eq!(back, traced);
        assert_eq!(
            decode_response(&legacy).expect("legacy decodes").spans,
            Vec::new()
        );
    }

    #[test]
    fn malformed_span_exports_error_not_panic() {
        let mut resp = JobResponse {
            id: 5,
            converged: true,
            steps: 10,
            rounds: 1,
            total_movement: 1.0,
            max_movement: 0.5,
            queue_ns: 7,
            service_ns: 11,
            positions: vec![Point::new(1.0, 2.0)],
            vol: None,
            spans: vec![SpanRecord {
                name: "job.local".into(),
                start_ns: 100,
                end_ns: 50, // inverted on purpose below
                trace_id: 1,
                span_id: 2,
                parent_id: 0,
            }],
        };
        resp.spans[0].end_ns = 200;
        let payload = encode_response(&resp);
        let ext_off = payload.len()
            - (1 + 4 // tag, len
                + 8 // shared trace id
                + 4 // count
                + 4 + "job.local".len() // name
                + 8 * 4); // ids + interval

        // An inverted interval is malformed, not a wrap-around duration.
        let mut bad = payload.clone();
        let end_off = payload.len() - 8;
        bad[end_off..].copy_from_slice(&49u64.to_le_bytes());
        assert!(matches!(
            decode_response(&bad),
            Err(WireError::Malformed {
                context: "span",
                ..
            })
        ));

        // A hostile count cannot drive allocation past the payload: it
        // just truncates.
        let mut bad = payload.clone();
        let count_off = ext_off + 1 + 4 + 8;
        bad[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&bad),
            Err(WireError::Truncated { .. })
        ));

        // Every truncation inside the export errors, never panics.
        for cut in ext_off + 1..payload.len() {
            assert!(
                decode_response(&payload[..cut]).is_err(),
                "span export truncated to {} bytes decoded",
                cut - ext_off
            );
        }
        assert!(decode_response(&payload[..ext_off])
            .expect("bare prefix decodes")
            .spans
            .is_empty());
    }
}
