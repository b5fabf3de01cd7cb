//! A blocking MACS-1 client over one TCP connection.
//!
//! Thin by design: each method sends one request line and decodes one
//! response line (plus the raw payload lines a `payload` header
//! announces). Retry/backoff policy is the caller's job — a shed
//! submission comes back as [`Response::Rejected`] with its suggested
//! `retry_after_ms`, not as an error.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mac_types::JobId;

use crate::job::{JobSpec, JobState};
use crate::proto::{Frame, Request, Response, PROTO_VERSION};

/// A connected client speaking MACS-1 to one server.
pub struct ServeClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    client_name: String,
}

impl ServeClient {
    /// Connect and handshake. Fails if the server speaks a different
    /// protocol version.
    pub fn connect(addr: &str, client_name: &str) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        let mut c = ServeClient {
            writer,
            reader: BufReader::new(stream),
            client_name: client_name.to_string(),
        };
        match c.roundtrip(&Request::Hello {
            client: client_name.to_string(),
        })? {
            Response::Hello { version } if version == PROTO_VERSION => Ok(c),
            Response::Hello { version } => Err(protocol_error(format!(
                "server speaks macs v{version}, this client speaks v{PROTO_VERSION}"
            ))),
            other => Err(protocol_error(format!("bad handshake answer: {other:?}"))),
        }
    }

    fn send(&mut self, req: &Request) -> std::io::Result<()> {
        self.writer.write_all(req.encode().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn recv(&mut self) -> std::io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::decode(line.trim_end()).map_err(protocol_error)
    }

    /// One request, one response line.
    pub fn roundtrip(&mut self, req: &Request) -> std::io::Result<Response> {
        self.send(req)?;
        self.recv()
    }

    fn recv_payload(&mut self, lines: u64) -> std::io::Result<String> {
        let mut body = String::new();
        let mut line = String::new();
        for _ in 0..lines {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "payload truncated",
                ));
            }
            body.push_str(&line);
        }
        Ok(body)
    }

    /// Submit a job. Returns the full admission answer (`Accepted` with
    /// dedup/cached flags, or `Rejected` with a retry delay).
    pub fn submit(&mut self, spec: &JobSpec) -> std::io::Result<Response> {
        self.roundtrip(&Request::Submit {
            client: self.client_name.clone(),
            spec: spec.clone(),
        })
    }

    /// Ask for a job's current state.
    pub fn poll(&mut self, job: JobId) -> std::io::Result<JobState> {
        match self.roundtrip(&Request::Poll { job })? {
            Response::Status { state, .. } => Ok(state),
            Response::Error { msg } => Err(protocol_error(msg)),
            other => Err(protocol_error(format!("bad poll answer: {other:?}"))),
        }
    }

    /// Wait (server-side) up to `timeout_ms` for the job to finish, then
    /// return its state — which may still be non-terminal on timeout.
    pub fn wait(&mut self, job: JobId, timeout_ms: u64) -> std::io::Result<JobState> {
        match self.roundtrip(&Request::Wait { job, timeout_ms })? {
            Response::Status { state, .. } => Ok(state),
            Response::Error { msg } => Err(protocol_error(msg)),
            other => Err(protocol_error(format!("bad wait answer: {other:?}"))),
        }
    }

    /// Wait for `job` to reach a terminal state, for up to `timeout_ms`
    /// total, without busy-polling: each round trip parks server-side
    /// for a bounded chunk, and between chunks the client sleeps for
    /// the server's suggested backoff (`hint_ms`, e.g. from a shed
    /// answer or the `serve/retry_after_ms` stats gauge), falling back
    /// to a capped exponential backoff when no hint is known. Returns
    /// the final observed state (possibly non-terminal on timeout) and
    /// the number of wait round trips made.
    pub fn wait_backoff(
        &mut self,
        job: JobId,
        timeout_ms: u64,
        hint_ms: Option<u64>,
    ) -> std::io::Result<(JobState, u64)> {
        // Chunked so one slow job cannot pin a server handler for the
        // full client-side timeout (the server caps a single wait at
        // 60 s anyway).
        const CHUNK_MS: u64 = 2_000;
        const BACKOFF_CAP_MS: u64 = 1_000;
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        let mut backoff = hint_ms.unwrap_or(25).clamp(1, BACKOFF_CAP_MS);
        let mut round_trips = 0u64;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let chunk = (left.as_millis() as u64).min(CHUNK_MS);
            round_trips += 1;
            let state = self.wait(job, chunk)?;
            if state.is_terminal() || left.as_millis() == 0 {
                return Ok((state, round_trips));
            }
            let sleep = backoff.min(
                deadline
                    .saturating_duration_since(Instant::now())
                    .as_millis() as u64,
            );
            if sleep > 0 {
                std::thread::sleep(Duration::from_millis(sleep));
            }
            if hint_ms.is_none() {
                backoff = (backoff * 2).min(BACKOFF_CAP_MS);
            }
        }
    }

    /// Subscribe to a job's live stream (`watch`). Calls `on_frame` for
    /// every frame the server sends until the terminal [`Frame::End`]
    /// arrives, then returns its state. Sample frames pass their raw
    /// CSV chunk as the second argument; concatenating the chunks of a
    /// complete stream reproduces the job's metrics artifact
    /// byte-for-byte.
    pub fn watch<F>(&mut self, job: JobId, mut on_frame: F) -> std::io::Result<JobState>
    where
        F: FnMut(&Frame, Option<&str>),
    {
        self.send(&Request::Watch { job })?;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "watch stream truncated",
                ));
            }
            let trimmed = line.trim_end();
            let frame = match Frame::decode(trimmed) {
                Ok(f) => f,
                Err(_) => match Response::decode(trimmed) {
                    Ok(Response::Error { msg }) => return Err(protocol_error(msg)),
                    _ => return Err(protocol_error(format!("bad watch frame: {trimmed}"))),
                },
            };
            match &frame {
                Frame::Sample { lines, .. } => {
                    let body = self.recv_payload(*lines)?;
                    on_frame(&frame, Some(&body));
                }
                Frame::Progress { .. } => on_frame(&frame, None),
                Frame::End { state, .. } => {
                    let state = state.clone();
                    on_frame(&frame, None);
                    return Ok(state);
                }
            }
        }
    }

    /// Fetch a completed job's artifact payload.
    pub fn fetch(&mut self, job: JobId) -> std::io::Result<String> {
        match self.roundtrip(&Request::Fetch { job })? {
            Response::Payload { lines, .. } => self.recv_payload(lines),
            Response::Error { msg } => Err(protocol_error(msg)),
            other => Err(protocol_error(format!("bad fetch answer: {other:?}"))),
        }
    }

    /// Fetch the server counters as a mac-metrics v1 CSV.
    pub fn stats(&mut self) -> std::io::Result<String> {
        match self.roundtrip(&Request::Stats)? {
            Response::Payload { lines, .. } => self.recv_payload(lines),
            other => Err(protocol_error(format!("bad stats answer: {other:?}"))),
        }
    }

    /// Pause job dispatch (queued jobs stay queued).
    pub fn pause(&mut self) -> std::io::Result<()> {
        self.expect_ack(&Request::Pause)
    }

    /// Resume job dispatch after a pause.
    pub fn resume(&mut self) -> std::io::Result<()> {
        self.expect_ack(&Request::Resume)
    }

    /// Ask the server to drain its queue and exit.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.expect_ack(&Request::Shutdown)
    }

    fn expect_ack(&mut self, req: &Request) -> std::io::Result<()> {
        match self.roundtrip(req)? {
            Response::Ack { .. } => Ok(()),
            other => Err(protocol_error(format!("expected ack, got {other:?}"))),
        }
    }
}

fn protocol_error(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}
