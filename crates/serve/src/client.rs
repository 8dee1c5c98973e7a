//! A minimal blocking client for the migration server.
//!
//! One [`ServeClient`] wraps one TCP connection; requests on it are
//! serialized (send a frame, read the reply frame). Use one client per
//! thread for concurrency — the server multiplexes connections on one
//! front-end thread and runs one job per connection at a time.
//!
//! Requests with `progress_stride > 0` stream [`ProgressUpdate`] frames
//! before the terminal reply. [`request`](ServeClient::request) silently
//! skips them (the old-client grace path);
//! [`request_streaming`](ServeClient::request_streaming) hands each one
//! to a callback. [`send_request`](ServeClient::send_request) /
//! [`recv_reply`](ServeClient::recv_reply) split the two halves so
//! several requests can be kept in flight on one connection (pipelining
//! — the server answers in submission order).

//! Tracing: [`with_tracing`](ServeClient::with_tracing) arms the
//! connection with a deterministic trace-id generator. Each request
//! stamped via [`begin_trace`](ServeClient::begin_trace) becomes a
//! `client.request` root span; the span tree the server (or a router)
//! exports in its reply is harvested, re-based onto the root's local
//! start, and accumulated until
//! [`take_trace_spans`](ServeClient::take_trace_spans) drains it.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use dpm_netlist::Netlist;
use dpm_obs::{rebase_spans, SpanRecord, SpanRecorder, TraceContext, TraceIdGen};
use dpm_place::{Die, Placement};

use crate::delta::{encode_delta_request, DeltaJobRequest};
use crate::wire::{
    decode_design_ack, decode_need_design, decode_progress, decode_stats, encode_design_bytes,
    encode_put_design, fnv1a64, read_frame, write_frame, DesignAck, Frame, FrameKind, JobRequest,
    NeedDesign, PayloadEncoding, ProgressUpdate, PutDesign, Reply, StatsSnapshot, WireError,
    DEFAULT_MAX_FRAME_LEN,
};

/// What a delta request can come back with: a normal terminal [`Reply`]
/// or a typed [`NeedDesign`] cache miss asking the client to upload the
/// baseline and resend.
#[derive(Debug, Clone)]
pub enum DeltaReply {
    /// The server had the baseline and ran the job.
    Done(Reply),
    /// The baseline is not cached; upload it and resend the delta.
    NeedDesign(NeedDesign),
}

/// A traced request awaiting its terminal reply.
struct PendingTrace {
    id: u64,
    ctx: TraceContext,
    start_ns: u64,
}

/// Per-connection tracing state, armed by
/// [`ServeClient::with_tracing`].
struct Tracing {
    /// Used only as the connection's monotonic clock (its epoch anchors
    /// every root span); nothing is recorded into its ring.
    clock: SpanRecorder,
    ids: TraceIdGen,
    tenant: String,
    pending: VecDeque<PendingTrace>,
    harvested: Vec<SpanRecord>,
}

/// A blocking connection to a migration server (`dpm-ctl`'s
/// `CtlServer`), or to anything else that speaks the [`wire`](crate::wire)
/// protocol.
pub struct ServeClient {
    stream: TcpStream,
    tracing: Option<Tracing>,
}

impl ServeClient {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Returns the underlying connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            tracing: None,
        })
    }

    /// Bounds every blocking read and write on this connection to
    /// `timeout` of silence (`None`, the default, blocks indefinitely).
    /// A read or write that times out fails with an I/O error.
    pub(crate) fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Arms distributed tracing on this connection. Trace and span ids
    /// are minted deterministically from `seed`, so the same seed and
    /// request sequence reproduce the same ids.
    pub fn with_tracing(mut self, seed: u64) -> Self {
        self.tracing = Some(Tracing {
            clock: SpanRecorder::new(1),
            ids: TraceIdGen::seeded(seed),
            tenant: String::new(),
            pending: VecDeque::new(),
            harvested: Vec::new(),
        });
        self
    }

    /// Labels this traced connection with a tenant name, surfaced by
    /// exporters as a `tenant` arg on root spans. No-op unless
    /// [`with_tracing`](Self::with_tracing) was called first.
    pub fn with_tenant(mut self, tenant: &str) -> Self {
        if let Some(t) = &mut self.tracing {
            t.tenant = tenant.to_string();
        }
        self
    }

    /// The tenant label of a traced connection, if any was set.
    pub fn tenant(&self) -> Option<&str> {
        self.tracing
            .as_ref()
            .filter(|t| !t.tenant.is_empty())
            .map(|t| t.tenant.as_str())
    }

    /// Mints a fresh root [`TraceContext`] and stamps it onto `req`, so
    /// the request joins a new distributed trace. Returns `None` (and
    /// leaves `req` untouched) unless tracing is armed.
    pub fn begin_trace(&mut self, req: &mut JobRequest) -> Option<TraceContext> {
        let t = self.tracing.as_mut()?;
        let root = t.ids.root();
        t.pending.push_back(PendingTrace {
            id: req.id,
            ctx: root,
            start_ns: t.clock.now_ns(),
        });
        req.trace = Some(root);
        Some(root)
    }

    /// Drains every span harvested from traced requests so far: one
    /// `client.request` root per completed traced request plus the
    /// remote span tree its reply exported, re-based under the root.
    pub fn take_trace_spans(&mut self) -> Vec<SpanRecord> {
        self.tracing
            .as_mut()
            .map(|t| std::mem::take(&mut t.harvested))
            .unwrap_or_default()
    }

    /// Closes out the pending trace a terminal reply belongs to:
    /// records the `client.request` root span and folds the reply's
    /// exported spans (normalized to 0 by the sender) into the
    /// connection's harvest, shifted onto the root's local start.
    fn harvest(&mut self, reply: &mut Reply) {
        let Some(t) = self.tracing.as_mut() else {
            return;
        };
        let reply_id = match reply {
            Reply::Ok(resp) => resp.id,
            Reply::Rejected(e) => e.id,
        };
        let Some(pos) = t.pending.iter().position(|p| p.id == reply_id) else {
            return;
        };
        let pending = t.pending.remove(pos).expect("position is in range");
        t.harvested.push(SpanRecord {
            name: "client.request".into(),
            start_ns: pending.start_ns,
            end_ns: t.clock.now_ns(),
            trace_id: pending.ctx.trace_id,
            span_id: pending.ctx.span_id,
            parent_id: 0,
        });
        if let Reply::Ok(resp) = reply {
            let mut remote = std::mem::take(&mut resp.spans);
            rebase_spans(&mut remote, pending.start_ns);
            t.harvested.append(&mut remote);
        }
    }

    /// Sends one request without waiting for its reply. Pair with
    /// [`recv_reply`](Self::recv_reply); the server replies in
    /// submission order, so N sends followed by N receives keeps N
    /// requests in flight on this connection.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the connection fails.
    pub fn send_request(
        &mut self,
        req: &JobRequest,
        encoding: PayloadEncoding,
    ) -> Result<(), WireError> {
        let payload = crate::wire::encode_request(req, encoding);
        write_frame(&mut self.stream, FrameKind::Request, &payload)
    }

    /// Blocks until the next terminal reply arrives, discarding any
    /// interleaved progress frames.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the connection fails or a frame is
    /// corrupt.
    pub fn recv_reply(&mut self) -> Result<Reply, WireError> {
        self.recv_reply_with(|_| {})
    }

    /// Blocks for the next frame; a connection closed between frames is
    /// [`WireError::Truncated`] with `context`.
    fn next_frame(&mut self, context: &'static str) -> Result<Frame, WireError> {
        read_frame(&mut self.stream, DEFAULT_MAX_FRAME_LEN)?.ok_or(WireError::Truncated { context })
    }

    /// Blocks until the next terminal reply arrives, handing every
    /// interleaved [`ProgressUpdate`] to `on_progress` first.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the connection fails or a frame is
    /// corrupt.
    pub fn recv_reply_with(
        &mut self,
        mut on_progress: impl FnMut(&ProgressUpdate),
    ) -> Result<Reply, WireError> {
        loop {
            let frame = self.next_frame("reply frame (connection closed)")?;
            if frame.kind == FrameKind::Progress {
                on_progress(&decode_progress(&frame.payload)?);
                continue;
            }
            let mut reply = Reply::from_frame(&frame)?;
            self.harvest(&mut reply);
            return Ok(reply);
        }
    }

    /// Sends one request and blocks until the terminal reply arrives.
    /// Progress frames the server streams in between are skipped — set
    /// `progress_stride: 0` on the request to suppress them entirely, or
    /// use [`request_streaming`](Self::request_streaming) to observe
    /// them.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the connection fails or either frame
    /// is corrupt. Server-side rejections are *not* errors here — they
    /// arrive as [`Reply::Rejected`].
    pub fn request(
        &mut self,
        req: &JobRequest,
        encoding: PayloadEncoding,
    ) -> Result<Reply, WireError> {
        self.send_request(req, encoding)?;
        self.recv_reply()
    }

    /// Sends one request and streams its progress: `on_progress` runs
    /// for every in-flight [`ProgressUpdate`] frame, then the terminal
    /// reply is returned.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the connection fails or a frame is
    /// corrupt.
    pub fn request_streaming(
        &mut self,
        req: &JobRequest,
        encoding: PayloadEncoding,
        on_progress: impl FnMut(&ProgressUpdate),
    ) -> Result<Reply, WireError> {
        self.send_request(req, encoding)?;
        self.recv_reply_with(on_progress)
    }

    /// Uploads a baseline design to the server's content-hash cache
    /// (wire v3) and returns the ack. The
    /// returned [`DesignAck::hash`] is the key later
    /// [`DeltaJobRequest::baseline`] fields must carry; it always
    /// equals [`design_hash`](crate::wire::design_hash) of the design.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the connection fails, a frame is
    /// corrupt, or the server answers with something other than a
    /// design ack.
    pub fn put_design(
        &mut self,
        id: u64,
        tenant: &str,
        netlist: &Netlist,
        die: &Die,
        placement: &Placement,
    ) -> Result<DesignAck, WireError> {
        let bytes = encode_design_bytes(netlist, die, placement);
        let expected = fnv1a64(&bytes);
        let put = PutDesign {
            id,
            tenant: tenant.to_string(),
            bytes,
        };
        write_frame(
            &mut self.stream,
            FrameKind::PutDesign,
            &encode_put_design(&put),
        )?;
        loop {
            let frame = self.next_frame("design ack (connection closed)")?;
            match frame.kind {
                FrameKind::DesignAck => {
                    let ack = decode_design_ack(&frame.payload)?;
                    if ack.hash != expected {
                        return Err(WireError::Malformed {
                            context: "design ack",
                            message: format!(
                                "server hashed the design to {:016x}, client to {expected:016x}",
                                ack.hash
                            ),
                        });
                    }
                    return Ok(ack);
                }
                FrameKind::Progress => continue,
                FrameKind::Error => {
                    // Surface the server's typed rejection as a wire
                    // error — uploads have no partial-success state.
                    let e = crate::wire::decode_error(&frame.payload)?;
                    return Err(WireError::Malformed {
                        context: "design upload",
                        message: format!("{}: {}", e.code.as_str(), e.message),
                    });
                }
                other => {
                    return Err(WireError::Malformed {
                        context: "design ack",
                        message: format!("expected a design ack, got {other:?}"),
                    })
                }
            }
        }
    }

    /// Sends one delta request without waiting for its reply. Pair with
    /// [`recv_delta_reply`](Self::recv_delta_reply).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the connection fails.
    pub fn send_delta_request(&mut self, req: &DeltaJobRequest) -> Result<(), WireError> {
        write_frame(
            &mut self.stream,
            FrameKind::DeltaRequest,
            &encode_delta_request(req),
        )
    }

    /// Blocks until the next delta-request outcome arrives: a terminal
    /// [`Reply`] or a [`NeedDesign`] cache miss. Interleaved progress
    /// frames go to `on_progress`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the connection fails or a frame is
    /// corrupt.
    pub fn recv_delta_reply(
        &mut self,
        mut on_progress: impl FnMut(&ProgressUpdate),
    ) -> Result<DeltaReply, WireError> {
        loop {
            let frame = self.next_frame("delta reply (connection closed)")?;
            match frame.kind {
                FrameKind::Progress => on_progress(&decode_progress(&frame.payload)?),
                FrameKind::NeedDesign => {
                    return Ok(DeltaReply::NeedDesign(decode_need_design(&frame.payload)?))
                }
                _ => {
                    let mut reply = Reply::from_frame(&frame)?;
                    self.harvest(&mut reply);
                    return Ok(DeltaReply::Done(reply));
                }
            }
        }
    }

    /// Sends a delta request and resolves the cache-miss handshake: on
    /// [`NeedDesign`] the provided baseline is uploaded and the delta
    /// resent, so the caller always gets a terminal [`Reply`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the connection fails, a frame is
    /// corrupt, or the server still misses the baseline after the
    /// upload.
    pub fn request_delta(
        &mut self,
        req: &DeltaJobRequest,
        baseline: (&Netlist, &Die, &Placement),
        mut on_progress: impl FnMut(&ProgressUpdate),
    ) -> Result<Reply, WireError> {
        self.send_delta_request(req)?;
        match self.recv_delta_reply(&mut on_progress)? {
            DeltaReply::Done(reply) => Ok(reply),
            DeltaReply::NeedDesign(need) => {
                let (nl, die, pl) = baseline;
                self.put_design(req.id, &req.tenant, nl, die, pl)?;
                self.send_delta_request(req)?;
                match self.recv_delta_reply(&mut on_progress)? {
                    DeltaReply::Done(reply) => Ok(reply),
                    DeltaReply::NeedDesign(_) => Err(WireError::Malformed {
                        context: "delta reply",
                        message: format!(
                            "server still misses baseline {:016x} after upload",
                            need.hash
                        ),
                    }),
                }
            }
        }
    }

    /// Fetches the server's metrics snapshot: counters, queue depth,
    /// latency histograms, merged kernel timings.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the connection fails, the snapshot is
    /// corrupt, or the server answers with something other than a stats
    /// frame.
    pub fn stats(&mut self) -> Result<StatsSnapshot, WireError> {
        write_frame(&mut self.stream, FrameKind::StatsRequest, &[])?;
        loop {
            let frame = self.next_frame("stats frame (connection closed)")?;
            match frame.kind {
                FrameKind::Stats => return decode_stats(&frame.payload),
                // Stray progress from an earlier streaming request on
                // this connection; skip it.
                FrameKind::Progress => continue,
                other => {
                    return Err(WireError::Malformed {
                        context: "stats reply",
                        message: format!("expected a stats frame, got {other:?}"),
                    })
                }
            }
        }
    }
}
