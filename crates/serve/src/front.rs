//! The front end both daemons share: the accept loop, the session loop,
//! the line writer, and the replies whose shape does not depend on
//! where the work ran (`tune`, the `tune_frontier` stream and
//! `frontier`).
//!
//! The explorer daemon ([`crate::server`]) and the cluster coordinator
//! ([`crate::cluster`]) differ only in the per-request handler they plug
//! into [`serve_session`]: the daemon runs work on its engine, the
//! coordinator fans it out to shards. Everything between the socket and
//! that handler — the connection bound, the line cap, pipelined flush
//! coalescing, stopping after `shutdown` — is this one copy, so a
//! cluster stays indistinguishable from one daemon on the wire.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chain_nn_dse::{pareto, PointOutcome};
use chain_nn_obs::{Counter, Registry};
use chain_nn_tuner::frontier::{self, FrontierTuneRequest};
use chain_nn_tuner::{MixEvaluator, TuneError, TuneReport};

use crate::protocol::{
    FrontierDoneSummary, FrontierEntry, FrontierStepSummary, Response, TuneSummary,
};

/// What a tune round returns to a
/// [`BatchFnEvaluator`](chain_nn_tuner::BatchFnEvaluator): the round's
/// outcomes in point order, then its cache hits and misses.
pub(crate) type RoundResult = Result<(Vec<PointOutcome>, u64, u64), TuneError>;

/// Longest request line a session will buffer. Real requests are a few
/// hundred bytes (the largest is a sweep spec with explicit axis
/// lists); anything bigger is a hostile or broken client, and an
/// unbounded `read_line` would buffer it into memory wholesale.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// The connection-level state of one front end: what its accept and
/// session loops count, bound and stop on.
pub(crate) struct Front {
    /// Request lines served across all sessions.
    pub(crate) requests: AtomicU64,
    /// Set by a `shutdown` request (or a fatal listener error); the
    /// accept loop returns once it sees it.
    pub(crate) shutdown: AtomicBool,
    /// Sessions currently open (incremented at accept, decremented when
    /// the session thread exits).
    pub(crate) connections: AtomicUsize,
    /// Connection bound: accepted sockets beyond it get one `busy` line.
    pub(crate) max_connections: usize,
    /// `serve_connections_refused_total`: refusals at the bound.
    refused: Arc<Counter>,
}

impl Front {
    /// A front end bounded at `max_connections` (at least 1), counting
    /// its refusals into `registry`.
    pub(crate) fn new(max_connections: usize, registry: &Registry) -> Arc<Front> {
        Arc::new(Front {
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            max_connections: max_connections.max(1),
            refused: registry.counter("serve_connections_refused_total"),
        })
    }

    /// Accepts connections until [`Front::shutdown`] is set, running
    /// `session` on a detached thread per connection.
    ///
    /// # Errors
    ///
    /// Fatal listener failures.
    pub(crate) fn accept_loop(
        self: &Arc<Self>,
        listener: &TcpListener,
        session: impl Fn(TcpStream) + Clone + Send + 'static,
    ) -> std::io::Result<()> {
        // Poll-accept so the loop can observe the shutdown flag; 5 ms
        // keeps idle CPU at noise level while staying prompt.
        listener.set_nonblocking(true)?;
        while !self.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    // Replies are small and a pipelining client stuffs
                    // many requests down before reading: without
                    // TCP_NODELAY, Nagle holds each reply for the
                    // peer's delayed ACK once the lockstep rhythm is
                    // gone.
                    stream.set_nodelay(true).ok();
                    // The connection bound is enforced here: beyond it
                    // the front end answers one `busy` line and closes
                    // instead of accumulating threads for idle sockets.
                    let open = self.connections.load(Ordering::SeqCst);
                    if open >= self.max_connections {
                        self.refused.inc();
                        let busy = Response::Busy {
                            active: open,
                            capacity: self.max_connections,
                        };
                        let _ = LineSink::new(&mut BufWriter::new(stream)).send(&busy);
                        continue;
                    }
                    self.connections.fetch_add(1, Ordering::SeqCst);
                    let front = Arc::clone(self);
                    let session = session.clone();
                    // Detached on purpose: a session blocked on an idle
                    // client must not block shutdown.
                    std::thread::spawn(move || {
                        session(stream);
                        front.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// One session: line in, `handle` it, reply out, until EOF, a dead
/// peer, or a reply that asks to stop (`shutdown`, which also sets the
/// front end's shutdown flag).
pub(crate) fn serve_session(
    stream: TcpStream,
    front: &Front,
    mut handle: impl FnMut(&str, &mut LineSink<'_>) -> RequestOutcome,
) {
    let Ok(peer_read) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer_read);
    let mut writer = BufWriter::new(stream);
    let mut sink = LineSink::new(&mut writer);
    let mut line = String::new();
    loop {
        line.clear();
        sink.set_req_id(None);
        match (&mut reader).take(MAX_REQUEST_BYTES).read_line(&mut line) {
            Ok(0) | Err(_) => return, // clean EOF, or the peer went away
            Ok(_) if line.len() as u64 >= MAX_REQUEST_BYTES && !line.ends_with('\n') => {
                // Oversized request: answer once, drop the connection
                // (the rest of the line cannot be resynchronized).
                let _ = sink.send(&Response::error(format!(
                    "request exceeds {MAX_REQUEST_BYTES} bytes"
                )));
                return;
            }
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        front.requests.fetch_add(1, Ordering::Relaxed);
        match handle(trimmed, &mut sink) {
            RequestOutcome::Reply(response, stop_after_reply) => {
                if sink.write(&response).is_err() {
                    return;
                }
                // Pipelining: when the client has already buffered the
                // next request line, hold the flush so a whole burst of
                // replies coalesces into one write syscall (and fewer
                // packets). A lockstep client always sees an immediate
                // flush — its next line cannot be buffered yet.
                let more_pending = reader.buffer().contains(&b'\n');
                if (!more_pending || stop_after_reply) && sink.flush().is_err() {
                    return;
                }
                if stop_after_reply {
                    front.shutdown.store(true, Ordering::SeqCst);
                    return;
                }
            }
            RequestOutcome::Streamed { sink_dead } => {
                if sink_dead {
                    return;
                }
            }
        }
    }
}

/// The line writer every response line of a session goes through: one
/// `\n`-terminated JSON object per line, encoded into one buffer the
/// sink keeps for the whole connection, so a reply allocates nothing.
/// [`LineSink::send`] flushes immediately. For single-reply requests
/// the flush is merely prompt; for the streaming requests
/// (`tune_frontier`, `frontier` with `"stream":true`, `watch`) it is
/// the contract — each result line reaches the client as it is
/// produced, before the next step/entry/sample is computed.
pub(crate) struct LineSink<'a> {
    writer: &'a mut dyn Write,
    req_id: Option<u64>,
    wire: String,
}

impl<'a> LineSink<'a> {
    /// Wraps a transport writer (a `BufWriter<TcpStream>` in a session;
    /// anything `Write` in tests).
    pub(crate) fn new(writer: &'a mut dyn Write) -> Self {
        LineSink {
            writer,
            req_id: None,
            wire: String::new(),
        }
    }

    /// Stamps every following line with the pipelining id of the
    /// request being answered (`None` leaves the wire unchanged).
    /// Streamed lines carry the id too — that is what lets a
    /// pipelining client attribute every line of an interleaved session
    /// to the request that produced it.
    pub(crate) fn set_req_id(&mut self, req_id: Option<u64>) {
        self.req_id = req_id;
    }

    /// Writes one response line into the transport's buffer without
    /// flushing it.
    ///
    /// # Errors
    ///
    /// The underlying transport failure — the peer is gone; abandon
    /// the session.
    fn write(&mut self, response: &Response) -> std::io::Result<()> {
        self.wire.clear();
        response.encode_into(self.req_id, &mut self.wire);
        self.wire.push('\n');
        self.writer.write_all(self.wire.as_bytes())
    }

    /// Flushes the buffered lines to the peer.
    ///
    /// # Errors
    ///
    /// As [`LineSink::write`].
    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Writes one response line and flushes it to the peer.
    ///
    /// # Errors
    ///
    /// As [`LineSink::write`].
    pub(crate) fn send(&mut self, response: &Response) -> std::io::Result<()> {
        self.write(response)?;
        self.flush()
    }
}

/// How one request left the session: a normal reply (plus whether the
/// session must stop afterwards), or a streamed response that already
/// went through the sink (plus whether the sink died mid-stream).
pub(crate) enum RequestOutcome {
    Reply(Box<Response>, bool),
    Streamed { sink_dead: bool },
}

impl RequestOutcome {
    /// A single-reply outcome (boxed so the streamed variant stays
    /// pointer-sized).
    pub(crate) fn reply(response: Response, stop_after_reply: bool) -> Self {
        RequestOutcome::Reply(Box::new(response), stop_after_reply)
    }

    /// The trace-log status of the request: `busy` and `error` replies
    /// by name, a stream whose peer vanished as `disconnect`, anything
    /// else `ok`.
    pub(crate) fn status(&self) -> &'static str {
        match self {
            RequestOutcome::Reply(response, _) => match **response {
                Response::Error { .. } => "error",
                Response::Busy { .. } => "busy",
                _ => "ok",
            },
            RequestOutcome::Streamed { sink_dead: false } => "ok",
            RequestOutcome::Streamed { sink_dead: true } => "disconnect",
        }
    }
}

/// The reply to a `tune`: the report's summary, or the tuner's error.
/// `degraded` marks a cluster tune whose rounds were re-routed.
pub(crate) fn tune_reply(result: Result<TuneReport, TuneError>, degraded: bool) -> Response {
    match result {
        Err(e) => Response::error(e),
        Ok(report) => Response::Tune(TuneSummary {
            best: report.best,
            evaluations: report.evaluations,
            cache_hits: report.cache_hits,
            cache_misses: report.cache_misses,
            rounds: report.rounds,
            exhaustive_points: report.exhaustive_points,
            degraded,
        }),
    }
}

/// Runs a `tune_frontier` through `evaluator`, streaming one step line
/// per budget step as it completes and then the done line. A failure
/// before any line went out is an ordinary error reply; one after ends
/// the stream with an error line (the framing rule allows it in place
/// of `done`); a dead sink ends it silently. Also returns the sweep's
/// distinct evaluations (0 when it failed).
pub(crate) fn stream_tune_frontier<E: MixEvaluator>(
    request: &FrontierTuneRequest,
    evaluator: &mut E,
    sink: &mut LineSink<'_>,
) -> (RequestOutcome, u64) {
    let steps = request.sweep.values.len();
    let mut streaming = false;
    let mut sink_dead = false;
    let result = frontier::tune_frontier(request, evaluator, |i, step| {
        let line = Response::TuneFrontierStep(FrontierStepSummary {
            step: i,
            steps,
            result: step.clone(),
        });
        streaming = true;
        sink.send(&line).map_err(|_| {
            sink_dead = true;
            TuneError::Backend("client closed the stream".to_owned())
        })
    });
    match result {
        Ok(report) => {
            let done = Response::TuneFrontierDone(FrontierDoneSummary {
                steps: report.steps.len(),
                frontier: report.frontier,
                evaluations: report.evaluations,
                standalone_evaluations: report.standalone_evaluations,
                cache_hits: report.cache_hits,
                cache_misses: report.cache_misses,
                exhaustive_points: report.exhaustive_points,
            });
            let sink_dead = sink_dead || sink.send(&done).is_err();
            (RequestOutcome::Streamed { sink_dead }, report.evaluations)
        }
        Err(_) if sink_dead => (RequestOutcome::Streamed { sink_dead }, 0),
        Err(e) => {
            let error = Response::error(e);
            let outcome = if streaming {
                RequestOutcome::Streamed {
                    sink_dead: sink.send(&error).is_err(),
                }
            } else {
                RequestOutcome::reply(error, false)
            };
            (outcome, 0)
        }
    }
}

/// Answers a `frontier` request over `feasible` (the whole cache's
/// feasible entries, in the cache's deterministic order): selects the
/// 2-D, 3-D or SQNR Pareto frontier, then either streams it one entry
/// per line followed by the done line, or returns one aggregate reply.
pub(crate) fn frontier_reply(
    feasible: &[FrontierEntry],
    dims: u8,
    sqnr: bool,
    stream: bool,
    degraded: bool,
    sink: &mut LineSink<'_>,
) -> RequestOutcome {
    let objectives: Vec<(usize, pareto::Objectives)> = feasible
        .iter()
        .enumerate()
        .map(|(i, e)| (i, pareto::Objectives::from(&e.result)))
        .collect();
    let keep = if dims == 2 {
        pareto::frontier_2d(&objectives)
    } else if sqnr {
        pareto::frontier_accuracy(&objectives)
    } else {
        pareto::frontier_3d(&objectives)
    };
    if !stream {
        let entries = keep.into_iter().map(|i| feasible[i].clone()).collect();
        return RequestOutcome::reply(
            Response::Frontier {
                dims,
                entries,
                degraded,
            },
            false,
        );
    }
    // The streaming variant: for very large caches the client starts
    // consuming the frontier while the rest is still being written.
    let entries = keep.len();
    for i in keep {
        let line = Response::FrontierStreamEntry {
            entry: feasible[i].clone(),
        };
        if sink.send(&line).is_err() {
            return RequestOutcome::Streamed { sink_dead: true };
        }
    }
    let done = Response::FrontierStreamDone {
        dims,
        entries,
        degraded,
    };
    RequestOutcome::Streamed {
        sink_dead: sink.send(&done).is_err(),
    }
}
