//! The MACS-1 wire protocol: versioned, line-delimited flat JSON.
//!
//! # Framing
//!
//! Every message — request or response — is **one line** of JSON holding
//! a single flat object whose values are strings, non-negative integers,
//! or booleans (no nesting, no arrays, no floats). Every message carries
//! `"proto":"macs-1"`; a server or client that sees any other value must
//! reject the message, exactly as the `.mrc`/`.macb` decoders reject
//! unknown format versions. Messages that carry a bulk payload (fetched
//! artifacts, the stats export) say so with a `"lines":N` field: the
//! next `N` raw lines after the JSON line are the payload, verbatim.
//!
//! ```text
//! C: {"proto":"macs-1","type":"submit","client":"ci","workload":"sg","scale":1}
//! S: {"proto":"macs-1","type":"accepted","job":"<32 hex>","state":"queued","dedup":false,"cached":false,"queuepos":0}
//! C: {"proto":"macs-1","type":"poll","job":"<32 hex>"}
//! S: {"proto":"macs-1","type":"status","job":"<32 hex>","state":"done"}
//! ```
//!
//! Flat scalar objects keep the codec tiny (no external JSON dependency,
//! which this offline workspace cannot take) while staying line-oriented
//! and greppable, in the same spirit as the repo's other text formats.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mac_types::{json_escape, JobId};

use crate::job::{JobSpec, JobState};

/// Protocol version spoken by this build. Bump on any framing or field
/// semantics change, like `CACHE_FORMAT_VERSION`.
pub const PROTO_VERSION: u32 = 1;

/// The `"proto"` tag every MACS-1 message carries.
pub const PROTO_TAG: &str = "macs-1";

/// A scalar JSON value — the only kind MACS-1 messages may hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scalar {
    /// A JSON string.
    Str(String),
    /// A non-negative integer.
    Num(u64),
    /// A boolean.
    Bool(bool),
}

impl Scalar {
    /// The string value, if this is a [`Scalar::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is a [`Scalar::Num`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a [`Scalar::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// One parsed MACS-1 message: a flat map of scalar fields.
pub type Fields = BTreeMap<String, Scalar>;

/// Encode a field map as one line of flat JSON (no trailing newline).
/// Fields are emitted in sorted order, so encoding is deterministic.
fn encode_fields(fields: &Fields) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in fields {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":", json_escape(k));
        match v {
            Scalar::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            Scalar::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Scalar::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
    out.push('}');
    out
}

/// Parse one line of flat JSON into a field map. Rejects nesting,
/// arrays, null, floats, negative numbers, duplicate keys, and trailing
/// garbage — everything MACS-1 does not use.
pub fn decode_fields(line: &str) -> Result<Fields, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Fields::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let val = p.scalar()?;
            if fields.insert(key.clone(), val).is_some() {
                return Err(format!("duplicate key `{key}`"));
            }
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing garbage after object".into());
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected `{}`, got {other:?}", want as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit `{}`", d as char))?;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x20 => return Err("raw control byte in string".into()),
                Some(b) => {
                    // Re-assemble UTF-8 multi-byte sequences byte-wise.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos = end;
                }
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar, String> {
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                    return Err("floats are not part of MACS-1".into());
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
                text.parse()
                    .map(Scalar::Num)
                    .map_err(|e| format!("bad number `{text}`: {e}"))
            }
            Some(b't') | Some(b'f') => {
                for (word, val) in [("true", true), ("false", false)] {
                    if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return Ok(Scalar::Bool(val));
                    }
                }
                Err("bad literal".into())
            }
            other => Err(format!(
                "MACS-1 values are scalars only, got {:?}",
                other.map(|b| b as char)
            )),
        }
    }
}

/// A builder for one message's field map.
#[derive(Debug, Default)]
pub struct Msg {
    fields: Fields,
}

impl Msg {
    /// A message of the given `"type"`, pre-tagged with the protocol
    /// version.
    pub fn new(kind: &str) -> Self {
        let mut m = Msg {
            fields: Fields::new(),
        };
        m.fields
            .insert("proto".into(), Scalar::Str(PROTO_TAG.into()));
        m.fields.insert("type".into(), Scalar::Str(kind.into()));
        m
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, val: &str) -> Self {
        self.fields.insert(key.into(), Scalar::Str(val.into()));
        self
    }

    /// Add an integer field.
    pub fn num(mut self, key: &str, val: u64) -> Self {
        self.fields.insert(key.into(), Scalar::Num(val));
        self
    }

    /// Add a boolean field.
    pub fn flag(mut self, key: &str, val: bool) -> Self {
        self.fields.insert(key.into(), Scalar::Bool(val));
        self
    }

    /// Render as one JSON line (no newline).
    pub fn encode(&self) -> String {
        encode_fields(&self.fields)
    }
}

/// Typed view of one client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version/identity handshake.
    Hello {
        /// Client-chosen name, used for per-client fairness accounting.
        client: String,
    },
    /// Submit a job for execution.
    Submit {
        /// Client name (fairness accounting key).
        client: String,
        /// What to run.
        spec: JobSpec,
    },
    /// Ask for a job's current state.
    Poll {
        /// The job to inspect.
        job: JobId,
    },
    /// Block (server-side) until the job leaves the queue/run states or
    /// the timeout elapses, then answer like `poll`.
    Wait {
        /// The job to wait for.
        job: JobId,
        /// Longest server-side wait, in milliseconds.
        timeout_ms: u64,
    },
    /// Fetch a completed job's artifact payload.
    Fetch {
        /// The job whose artifact to return.
        job: JobId,
    },
    /// Subscribe to a job's live stream: the server answers with
    /// [`Frame`] messages (progress, metrics samples) until the job
    /// reaches a terminal state and a final [`Frame::End`] closes the
    /// stream.
    Watch {
        /// The job to stream.
        job: JobId,
    },
    /// Fetch the server counters as a mac-metrics v1 CSV payload.
    Stats,
    /// Stop dispatching queued jobs to workers (admin flow control).
    Pause,
    /// Resume dispatching after a pause.
    Resume,
    /// Drain the queue, then exit the serve loop.
    Shutdown,
}

fn get_str(f: &Fields, key: &str) -> Result<String, String> {
    f.get(key)
        .and_then(Scalar::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing/invalid string field `{key}`"))
}

fn get_job(f: &Fields) -> Result<JobId, String> {
    get_str(f, "job")?
        .parse()
        .map_err(|e| format!("bad job id: {e}"))
}

/// Check the `"proto"` tag and pull the `"type"` field.
fn message_type(f: &Fields) -> Result<String, String> {
    match f.get("proto").and_then(Scalar::as_str) {
        Some(PROTO_TAG) => {}
        Some(other) => return Err(format!("unsupported protocol `{other}`")),
        None => return Err("missing `proto` tag".into()),
    }
    get_str(f, "type")
}

impl Request {
    /// Parse one request line.
    pub fn decode(line: &str) -> Result<Request, String> {
        let f = decode_fields(line)?;
        let kind = message_type(&f)?;
        match kind.as_str() {
            "hello" => Ok(Request::Hello {
                client: get_str(&f, "client").unwrap_or_default(),
            }),
            "submit" => Ok(Request::Submit {
                client: get_str(&f, "client").unwrap_or_else(|_| "anonymous".into()),
                spec: JobSpec::from_fields(&f)?,
            }),
            "poll" => Ok(Request::Poll { job: get_job(&f)? }),
            "wait" => Ok(Request::Wait {
                job: get_job(&f)?,
                timeout_ms: f.get("timeoutms").and_then(Scalar::as_u64).unwrap_or(0),
            }),
            "fetch" => Ok(Request::Fetch { job: get_job(&f)? }),
            "watch" => Ok(Request::Watch { job: get_job(&f)? }),
            "stats" => Ok(Request::Stats),
            "pause" => Ok(Request::Pause),
            "resume" => Ok(Request::Resume),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type `{other}`")),
        }
    }

    /// Render as one request line (no newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Hello { client } => Msg::new("hello").str("client", client).encode(),
            Request::Submit { client, spec } => {
                let mut m = Msg::new("submit").str("client", client);
                m = spec.fill_fields(m);
                m.encode()
            }
            Request::Poll { job } => Msg::new("poll").str("job", &job.to_string()).encode(),
            Request::Wait { job, timeout_ms } => Msg::new("wait")
                .str("job", &job.to_string())
                .num("timeoutms", *timeout_ms)
                .encode(),
            Request::Fetch { job } => Msg::new("fetch").str("job", &job.to_string()).encode(),
            Request::Watch { job } => Msg::new("watch").str("job", &job.to_string()).encode(),
            Request::Stats => Msg::new("stats").encode(),
            Request::Pause => Msg::new("pause").encode(),
            Request::Resume => Msg::new("resume").encode(),
            Request::Shutdown => Msg::new("shutdown").encode(),
        }
    }
}

/// Typed view of one server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake answer.
    Hello {
        /// Server protocol version (always [`PROTO_VERSION`] here).
        version: u32,
    },
    /// The submission was admitted (or matched an existing job).
    Accepted {
        /// The job's content-addressed identity.
        job: JobId,
        /// State at admission time.
        state: JobState,
        /// True when this submission matched a job already queued or
        /// running (in-flight dedup).
        dedup: bool,
        /// True when the result was already in the artifact store and no
        /// simulation will run at all.
        cached: bool,
        /// Queue position at admission (0 = next; absent when not
        /// queued).
        queue_pos: Option<u64>,
    },
    /// The submission was shed. The client should retry no sooner than
    /// `retry_after_ms` from now.
    Rejected {
        /// Which admission rule fired (`queue-full`, `client-limit`,
        /// `overload`, `draining`).
        reason: String,
        /// Suggested backoff, in milliseconds.
        retry_after_ms: u64,
    },
    /// Poll/wait answer.
    Status {
        /// The job asked about.
        job: JobId,
        /// Its current state.
        state: JobState,
    },
    /// A header announcing `lines` payload lines follow, e.g. a fetched
    /// artifact or the stats CSV.
    Payload {
        /// What the payload is (`result`, `stats`).
        what: String,
        /// Number of raw lines following this message.
        lines: u64,
    },
    /// Generic acknowledgement (`pause`, `resume`, `shutdown`).
    Ack {
        /// Which verb is being acknowledged.
        what: String,
    },
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        msg: String,
    },
}

impl Response {
    /// Render as one response line (no newline).
    pub fn encode(&self) -> String {
        match self {
            Response::Hello { version } => {
                Msg::new("hello").num("version", *version as u64).encode()
            }
            Response::Accepted {
                job,
                state,
                dedup,
                cached,
                queue_pos,
            } => {
                let mut m = Msg::new("accepted")
                    .str("job", &job.to_string())
                    .str("state", state.as_str())
                    .flag("dedup", *dedup)
                    .flag("cached", *cached);
                if let Some(pos) = queue_pos {
                    m = m.num("queuepos", *pos);
                }
                m.encode()
            }
            Response::Rejected {
                reason,
                retry_after_ms,
            } => Msg::new("rejected")
                .str("reason", reason)
                .num("retryafterms", *retry_after_ms)
                .encode(),
            Response::Status { job, state } => {
                let mut m = Msg::new("status")
                    .str("job", &job.to_string())
                    .str("state", state.as_str());
                if let JobState::Failed { reason } = state {
                    m = m.str("reason", reason);
                }
                m.encode()
            }
            Response::Payload { what, lines } => Msg::new("payload")
                .str("what", what)
                .num("lines", *lines)
                .encode(),
            Response::Ack { what } => Msg::new("ack").str("what", what).encode(),
            Response::Error { msg } => Msg::new("error").str("msg", msg).encode(),
        }
    }

    /// Parse one response line.
    pub fn decode(line: &str) -> Result<Response, String> {
        let f = decode_fields(line)?;
        let kind = message_type(&f)?;
        match kind.as_str() {
            "hello" => Ok(Response::Hello {
                version: f
                    .get("version")
                    .and_then(Scalar::as_u64)
                    .ok_or("missing version")? as u32,
            }),
            "accepted" => Ok(Response::Accepted {
                job: get_job(&f)?,
                state: JobState::parse(
                    &get_str(&f, "state")?,
                    f.get("reason").and_then(Scalar::as_str),
                )?,
                dedup: f
                    .get("dedup")
                    .and_then(Scalar::as_bool)
                    .ok_or("missing dedup")?,
                cached: f
                    .get("cached")
                    .and_then(Scalar::as_bool)
                    .ok_or("missing cached")?,
                queue_pos: f.get("queuepos").and_then(Scalar::as_u64),
            }),
            "rejected" => Ok(Response::Rejected {
                reason: get_str(&f, "reason")?,
                retry_after_ms: f
                    .get("retryafterms")
                    .and_then(Scalar::as_u64)
                    .ok_or("missing retryafterms")?,
            }),
            "status" => Ok(Response::Status {
                job: get_job(&f)?,
                state: JobState::parse(
                    &get_str(&f, "state")?,
                    f.get("reason").and_then(Scalar::as_str),
                )?,
            }),
            "payload" => Ok(Response::Payload {
                what: get_str(&f, "what")?,
                lines: f
                    .get("lines")
                    .and_then(Scalar::as_u64)
                    .ok_or("missing lines")?,
            }),
            "ack" => Ok(Response::Ack {
                what: get_str(&f, "what")?,
            }),
            "error" => Ok(Response::Error {
                msg: get_str(&f, "msg")?,
            }),
            other => Err(format!("unknown response type `{other}`")),
        }
    }
}

/// One streamed message on a `watch` subscription. Frames share the
/// MACS-1 framing rules: one flat-JSON line each, with bulk payloads
/// (metrics sample chunks) announced by a `"lines":N` field exactly
/// like [`Response::Payload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Live progress of the watched job.
    Progress {
        /// The watched job.
        job: JobId,
        /// Simulated cycles so far.
        cycles: u64,
        /// Requests retired (completions) so far.
        retired: u64,
        /// Coarse phase token (`queued`, `running`, `done`, `unknown`).
        phase: String,
    },
    /// A chunk of the job's metrics CSV stream: `lines` raw lines
    /// follow this frame, verbatim. Concatenating every sample chunk of
    /// one stream reproduces the job's on-disk metrics artifact
    /// byte-for-byte (cycle-major row order).
    Sample {
        /// The watched job.
        job: JobId,
        /// Number of raw payload lines following this frame.
        lines: u64,
    },
    /// Terminal frame: the job reached `state`; the stream is over.
    End {
        /// The watched job.
        job: JobId,
        /// The terminal state.
        state: JobState,
    },
}

impl Frame {
    /// Render as one frame line (no newline).
    pub fn encode(&self) -> String {
        match self {
            Frame::Progress {
                job,
                cycles,
                retired,
                phase,
            } => Msg::new("progress")
                .str("job", &job.to_string())
                .num("cycles", *cycles)
                .num("retired", *retired)
                .str("phase", phase)
                .encode(),
            Frame::Sample { job, lines } => Msg::new("sample")
                .str("job", &job.to_string())
                .num("lines", *lines)
                .encode(),
            Frame::End { job, state } => {
                let mut m = Msg::new("end")
                    .str("job", &job.to_string())
                    .str("state", state.as_str());
                if let JobState::Failed { reason } = state {
                    m = m.str("reason", reason);
                }
                m.encode()
            }
        }
    }

    /// Parse one frame line.
    pub fn decode(line: &str) -> Result<Frame, String> {
        let f = decode_fields(line)?;
        let kind = message_type(&f)?;
        match kind.as_str() {
            "progress" => Ok(Frame::Progress {
                job: get_job(&f)?,
                cycles: f
                    .get("cycles")
                    .and_then(Scalar::as_u64)
                    .ok_or("missing cycles")?,
                retired: f
                    .get("retired")
                    .and_then(Scalar::as_u64)
                    .ok_or("missing retired")?,
                phase: get_str(&f, "phase")?,
            }),
            "sample" => Ok(Frame::Sample {
                job: get_job(&f)?,
                lines: f
                    .get("lines")
                    .and_then(Scalar::as_u64)
                    .ok_or("missing lines")?,
            }),
            "end" => Ok(Frame::End {
                job: get_job(&f)?,
                state: JobState::parse(
                    &get_str(&f, "state")?,
                    f.get("reason").and_then(Scalar::as_str),
                )?,
            }),
            other => Err(format!("unknown frame type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_round_trips() {
        let mut f = Fields::new();
        f.insert("a".into(), Scalar::Str("x \"quoted\"\nline".into()));
        f.insert("b".into(), Scalar::Num(42));
        f.insert("c".into(), Scalar::Bool(true));
        let line = encode_fields(&f);
        assert_eq!(decode_fields(&line).unwrap(), f);
    }

    #[test]
    fn decoder_rejects_non_macs_shapes() {
        assert!(decode_fields("[1,2]").is_err());
        assert!(decode_fields("{\"a\":{}}").is_err());
        assert!(decode_fields("{\"a\":[1]}").is_err());
        assert!(decode_fields("{\"a\":null}").is_err());
        assert!(decode_fields("{\"a\":1.5}").is_err());
        assert!(decode_fields("{\"a\":-1}").is_err());
        assert!(decode_fields("{\"a\":1}{").is_err());
        assert!(decode_fields("{\"a\":1,\"a\":2}").is_err());
        assert!(decode_fields("{}").unwrap().is_empty());
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let mut f = Fields::new();
        f.insert("w".into(), Scalar::Str("héllo → wörld \u{1F600}".into()));
        let line = encode_fields(&f);
        assert_eq!(decode_fields(&line).unwrap(), f);
        // \u escapes on the wire decode too.
        let f2 = decode_fields("{\"w\":\"\\u0041\\u00e9\"}").unwrap();
        assert_eq!(f2.get("w").unwrap().as_str().unwrap(), "Aé");
    }

    #[test]
    fn version_tag_is_enforced() {
        let ok = Request::Poll {
            job: JobId::from(7),
        }
        .encode();
        assert!(Request::decode(&ok).is_ok());
        let bad = ok.replace("macs-1", "macs-9");
        assert!(Request::decode(&bad).unwrap_err().contains("unsupported"));
        assert!(Request::decode("{\"type\":\"poll\"}")
            .unwrap_err()
            .contains("proto"));
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello {
                client: "ci".into(),
            },
            Request::Poll {
                job: JobId::from(0xabc),
            },
            Request::Wait {
                job: JobId::from(1),
                timeout_ms: 2500,
            },
            Request::Fetch {
                job: JobId::from(u128::MAX),
            },
            Request::Watch {
                job: JobId::from(0xdead),
            },
            Request::Stats,
            Request::Pause,
            Request::Resume,
            Request::Shutdown,
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Hello { version: 1 },
            Response::Accepted {
                job: JobId::from(9),
                state: JobState::Queued,
                dedup: true,
                cached: false,
                queue_pos: Some(3),
            },
            Response::Rejected {
                reason: "queue-full".into(),
                retry_after_ms: 250,
            },
            Response::Status {
                job: JobId::from(9),
                state: JobState::Failed {
                    reason: "timeout".into(),
                },
            },
            Response::Payload {
                what: "result".into(),
                lines: 12,
            },
            Response::Ack {
                what: "shutdown".into(),
            },
            Response::Error {
                msg: "no such job".into(),
            },
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            Frame::Progress {
                job: JobId::from(7),
                cycles: 123_456,
                retired: 789,
                phase: "running".into(),
            },
            Frame::Sample {
                job: JobId::from(7),
                lines: 42,
            },
            Frame::End {
                job: JobId::from(7),
                state: JobState::Done,
            },
            Frame::End {
                job: JobId::from(8),
                state: JobState::Failed {
                    reason: "hit the cycle cap".into(),
                },
            },
        ];
        for f in frames {
            assert_eq!(Frame::decode(&f.encode()).unwrap(), f, "{f:?}");
        }
        // Frames carry the proto tag and reject foreign versions.
        let line = Frame::Sample {
            job: JobId::from(1),
            lines: 0,
        }
        .encode();
        assert!(line.contains("\"proto\":\"macs-1\""));
        assert!(Frame::decode(&line.replace("macs-1", "macs-2")).is_err());
    }
}
