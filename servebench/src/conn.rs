//! One client connection and the generator loop that drives it.
//!
//! A generator thread owns one Unix-socket connection and does both
//! sending and receiving on it, so a run uses at most two generator
//! threads for its two connections. Reads wait (`ppoll`) only until the
//! next scheduled send, which lets one thread keep an open-loop schedule
//! while collecting responses.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdx_server::wire::{self, RequestBody, RequestFrame, STATUS_OK, STATUS_OK_PARTIAL};

/// How a response is judged correct.
#[derive(Debug, Clone)]
pub enum Check {
    /// The logical `Ok` body (everything after status and id) must equal
    /// these bytes exactly.
    Exact(Arc<[u8]>),
    /// An `Ok` answer echoing this op byte; the content is checked later.
    Op(u8),
    /// An `Ok` answer echoing `op`, then `skip` bytes that are not known in
    /// advance (a version), then exactly `tail`.
    Tail {
        op: u8,
        skip: usize,
        tail: Arc<[u8]>,
    },
}

/// What the generator learns about a request it is about to send.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Workload-defined op class (latency is kept per class).
    pub kind: u8,
    pub check: Check,
    /// A document that must have no other request of this kind in flight
    /// until this one is answered (edits of one document are serialized).
    pub lock: Option<u64>,
    /// Index into the stream's own record of what it sent (replay uses it).
    pub tag: u64,
}

pub enum Next {
    Send(Meta),
    /// The next op waits for an in-flight request to be answered.
    Wait,
    /// The stream is exhausted (finite setup streams).
    Done,
}

/// A seeded source of requests. `next` appends one length-prefixed
/// request frame to `out`, with its id bytes zeroed.
pub trait OpStream: Send {
    fn next(&mut self, out: &mut Vec<u8>) -> Next;
    fn answered(&mut self, _meta: &Meta) {}
    /// Stop drawing new ops: from now on only send what was drawn but
    /// held back, then report [`Next::Done`].
    fn finish(&mut self) {}
}

/// Byte offset of the request id inside a length-prefixed request frame
/// (after `len:u32` and `op:u8`).
const ID_AT: usize = 5;

/// Build a length-prefixed request frame with id 0.
pub fn request_frame(setting_id: u64, body: RequestBody) -> Vec<u8> {
    let mut out = vec![0u8; 4];
    wire::encode_request_into(
        &RequestFrame {
            id: 0,
            setting_id,
            body,
        },
        true,
        &mut out,
    );
    let len = u32::try_from(out.len() - 4).expect("request frame under 4 GiB");
    out[..4].copy_from_slice(&len.to_be_bytes());
    out
}

/// The bytes an `Ok` response carries after its status and id.
pub fn ok_body(body: wire::ResponseBody) -> Arc<[u8]> {
    let payload = wire::encode_response(&wire::ResponseFrame { id: 0, body });
    assert_eq!(payload[0], STATUS_OK, "expected answers are Ok responses");
    payload[9..].into()
}

pub struct Conn {
    sock: UnixStream,
    buf: Vec<u8>,
    filled: usize,
}

impl Conn {
    /// Connect and negotiate every protocol feature (binary documents,
    /// chunked responses, the setting registry and Stats v2).
    pub fn open(path: &Path) -> io::Result<Conn> {
        let sock = UnixStream::connect(path)?;
        sock.set_write_timeout(Some(Duration::from_secs(30)))?;
        let mut conn = Conn {
            sock,
            buf: vec![0; 1 << 16],
            filled: 0,
        };
        // Hello is the one frame sent before the setting id is negotiated.
        let hello = wire::frame(wire::encode_request(
            &RequestFrame::new(
                0,
                RequestBody::Hello {
                    features: wire::SUPPORTED_FEATURES,
                },
            ),
            false,
        ));
        conn.sock.write_all(&hello)?;
        let mut reply = None;
        while reply.is_none() {
            conn.pump(Duration::from_secs(30), |p| reply = Some(p.to_vec()))?;
        }
        match wire::decode_response(&reply.expect("loop ends with a reply"), wire::Codec::Text) {
            Ok(wire::ResponseFrame {
                body: wire::ResponseBody::HelloOk { features },
                ..
            }) if features == wire::SUPPORTED_FEATURES => Ok(conn),
            other => Err(io::Error::other(format!("Hello refused: {other:?}"))),
        }
    }

    /// Wait up to `timeout` for bytes, then hand every complete frame's
    /// payload to `f`. Returns whether any frame was delivered.
    pub fn pump(&mut self, timeout: Duration, mut f: impl FnMut(&[u8])) -> io::Result<bool> {
        if !crate::sys::wait_readable(self.sock.as_raw_fd(), timeout) {
            return Ok(false);
        }
        if self.buf.len() - self.filled < 1 << 15 {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match self.sock.read(&mut self.buf[self.filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => self.filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(false)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(false),
            Err(e) => return Err(e),
        }
        let mut at = 0;
        let mut any = false;
        while self.filled - at >= 4 {
            let len =
                u32::from_be_bytes(self.buf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if self.filled - at - 4 < len {
                if len + 4 > self.buf.len() {
                    self.buf.resize(len + 4 + (1 << 15), 0);
                }
                break;
            }
            f(&self.buf[at + 4..at + 4 + len]);
            any = true;
            at += 4 + len;
        }
        self.buf.copy_within(at..self.filled, 0);
        self.filled -= at;
        Ok(any)
    }

    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.sock.write_all(frame)
    }
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Keep `depth` requests in flight.
    Closed { depth: usize },
    /// Send one request every `interval_ns`, the first at `offset_ns` after
    /// the phase starts, whether or not earlier ones were answered — but
    /// never more than `max_outstanding` at once, the server's pipelining
    /// cap, beyond which it would answer `Busy`. A send held back by the
    /// cap still counts its latency from its scheduled time.
    Open {
        interval_ns: u64,
        offset_ns: u64,
        max_outstanding: usize,
    },
}

/// A client-side span: one request from its intended send time to its
/// last response byte. Times are nanoseconds since the run's clock origin.
#[derive(Debug, Clone)]
pub struct ReqSpan {
    pub id: u64,
    pub conn: u8,
    pub kind: u8,
    pub tag: u64,
    pub intended_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

/// What one connection saw in one phase.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub attempted: u64,
    pub completed: u64,
    pub errors: u64,
    pub busy: u64,
    pub wrong: u64,
    pub timeouts: u64,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
    /// Open loop: (kind, latency from intended send time) per request.
    pub lat: Vec<(u8, u64)>,
    /// Open loop: how late each send left against its schedule.
    pub lag_ns: Vec<u64>,
    /// Open loop: requests outstanding, sampled every 10 ms.
    pub backlog: Vec<u32>,
    /// Most requests this connection ever had outstanding.
    pub max_inflight: u64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    /// Client spans (traced runs only).
    pub spans: Vec<ReqSpan>,
}

impl PhaseOut {
    pub fn failed(&self) -> u64 {
        self.errors + self.busy + self.wrong + self.timeouts
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn merge(&mut self, other: PhaseOut) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.errors += other.errors;
        self.busy += other.busy;
        self.wrong += other.wrong;
        self.timeouts += other.timeouts;
        for f in other.failures {
            self.fail(f);
        }
        self.lat.extend(other.lat);
        self.lag_ns.extend(other.lag_ns);
        self.req_bytes += other.req_bytes;
        self.max_inflight = self.max_inflight.max(other.max_inflight);
        self.resp_bytes += other.resp_bytes;
        self.spans.extend(other.spans);
        if self.backlog.len() < other.backlog.len() {
            self.backlog.resize(other.backlog.len(), 0);
        }
        for (i, b) in other.backlog.into_iter().enumerate() {
            self.backlog[i] += b;
        }
    }
}

/// Shared between the generator threads and the sampling main thread.
#[derive(Default)]
pub struct Progress {
    pub completed: AtomicU64,
    /// Generator threads record client spans while this is set.
    pub tracing: AtomicBool,
}

struct Inflight {
    meta: Meta,
    intended_ns: u64,
    sent_ns: u64,
    body: Vec<u8>,
}

/// How long a phase waits for stragglers after it stops sending.
const DRAIN: Duration = Duration::from_secs(20);

/// Drive one connection through one phase that ends `end_ns` after
/// `origin`.
pub fn drive(
    conn: &mut Conn,
    conn_no: u8,
    ops: &mut dyn OpStream,
    mode: Mode,
    origin: Instant,
    end_ns: u64,
    progress: &Progress,
) -> PhaseOut {
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let mut out = PhaseOut::default();
    let mut inflight: HashMap<u64, Inflight> = HashMap::new();
    let mut frame = Vec::new();
    let mut next_id: u64 = 1;
    let mut next_due = match mode {
        Mode::Closed { .. } => 0,
        Mode::Open { offset_ns, .. } => offset_ns,
    };
    let mut next_sample = 0;
    let mut exhausted = false;
    let drain_until = end_ns + DRAIN.as_nanos() as u64;
    loop {
        let mut now = now_ns();
        // Send everything that is due.
        while !exhausted && now < end_ns {
            let intended = match mode {
                Mode::Closed { depth } if inflight.len() < depth => now,
                Mode::Open {
                    max_outstanding, ..
                } if next_due <= now && next_due < end_ns && inflight.len() < max_outstanding => {
                    next_due
                }
                _ => break,
            };
            frame.clear();
            let meta = match ops.next(&mut frame) {
                Next::Send(meta) => meta,
                Next::Wait => break,
                Next::Done => {
                    exhausted = true;
                    break;
                }
            };
            let id = (u64::from(conn_no) << 56) | next_id;
            next_id += 1;
            frame[ID_AT..ID_AT + 8].copy_from_slice(&id.to_be_bytes());
            let sent_ns = now_ns();
            if let Err(e) = conn.send(&frame) {
                out.attempted += 1;
                out.errors += 1;
                out.fail(format!("send failed: {e}"));
                return out;
            }
            out.attempted += 1;
            out.req_bytes += frame.len() as u64;
            if let Mode::Open { interval_ns, .. } = mode {
                out.lag_ns.push(sent_ns.saturating_sub(intended));
                next_due += interval_ns;
            }
            out.max_inflight = out.max_inflight.max(inflight.len() as u64 + 1);
            inflight.insert(
                id,
                Inflight {
                    meta,
                    intended_ns: intended,
                    sent_ns,
                    body: Vec::new(),
                },
            );
            now = now_ns();
        }
        if let Mode::Open { .. } = mode {
            while next_sample <= now && next_sample < end_ns {
                out.backlog.push(inflight.len() as u32);
                next_sample += 10_000_000;
            }
        }
        if (now >= end_ns || exhausted) && inflight.is_empty() {
            break;
        }
        if now >= drain_until {
            out.timeouts += inflight.len() as u64;
            out.fail(format!(
                "{} requests unanswered after the drain",
                inflight.len()
            ));
            break;
        }
        let wait_ns = match mode {
            Mode::Open {
                max_outstanding, ..
            } if next_due < end_ns && inflight.len() < max_outstanding => {
                next_due.saturating_sub(now)
            }
            _ => 2_000_000,
        }
        .min(2_000_000);
        let tracing = progress.tracing.load(Ordering::Relaxed);
        let pumped = conn.pump(Duration::from_nanos(wait_ns), |payload| {
            let done_ns = now_ns();
            let Some(&status) = payload.first() else {
                return;
            };
            if payload.len() < 9 {
                return;
            }
            let id = u64::from_be_bytes(payload[1..9].try_into().expect("8 bytes"));
            if status == STATUS_OK_PARTIAL {
                if let Some(f) = inflight.get_mut(&id) {
                    f.body.extend_from_slice(&payload[9..]);
                }
                out.resp_bytes += payload.len() as u64 + 4;
                return;
            }
            let Some(mut f) = inflight.remove(&id) else {
                out.wrong += 1;
                out.fail(format!("response for unknown id {id}"));
                return;
            };
            out.resp_bytes += payload.len() as u64 + 4;
            let ok = if status == STATUS_OK {
                f.body.extend_from_slice(&payload[9..]);
                let good = match &f.meta.check {
                    Check::Exact(want) => f.body[..] == want[..],
                    Check::Op(op) => f.body.first() == Some(op),
                    Check::Tail { op, skip, tail } => {
                        f.body.first() == Some(op)
                            && f.body.len() == 1 + skip + tail.len()
                            && f.body[1 + skip..] == tail[..]
                    }
                };
                if !good {
                    out.wrong += 1;
                    out.fail(format!(
                        "wrong answer to a kind-{} request (tag {}, {} body bytes, {})",
                        f.meta.kind,
                        f.meta.tag,
                        f.body.len(),
                        match &f.meta.check {
                            Check::Exact(w) => format!("expected exactly {} bytes", w.len()),
                            Check::Op(op) => format!("expected op {op}"),
                            Check::Tail { tail, .. } =>
                                format!("expected a {}-byte tail", tail.len()),
                        }
                    ));
                }
                good
            } else {
                match status {
                    wire::STATUS_BUSY => out.busy += 1,
                    _ => out.errors += 1,
                }
                let detail = wire::decode_response(payload, wire::Codec::Binary)
                    .map(|r| format!("{:?}", r.body))
                    .unwrap_or_else(|e| e.error.to_string());
                out.fail(format!("kind-{} request failed: {detail}", f.meta.kind));
                false
            };
            out.completed += 1;
            progress.completed.fetch_add(1, Ordering::Relaxed);
            if let Mode::Open { .. } = mode {
                out.lat.push((f.meta.kind, done_ns - f.intended_ns));
            }
            if tracing {
                out.spans.push(ReqSpan {
                    id,
                    conn: conn_no,
                    kind: f.meta.kind,
                    tag: f.meta.tag,
                    intended_ns: f.intended_ns,
                    sent_ns: f.sent_ns,
                    done_ns,
                    ok,
                });
            }
            ops.answered(&f.meta);
        });
        if let Err(e) = pumped {
            out.errors += inflight.len() as u64;
            out.fail(format!("connection lost: {e}"));
            break;
        }
    }
    out
}
