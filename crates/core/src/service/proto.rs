//! Wire protocol of the distributed campaign service.
//!
//! Frames are length-prefixed newline-JSON: `#<len>\n` followed by
//! exactly `len` payload bytes, the last of which must be `\n`.  The
//! length prefix lets the reader distinguish a *torn* frame (connection
//! died mid-payload — the lease must be reissued) from a merely slow one,
//! and the trailing newline is a cheap end-marker a corrupted length
//! cannot fake.  Every frame is written with a single `write_all` of one
//! contiguous buffer, so two threads sharing a write lock can never
//! interleave partial frames.
//!
//! The payload is one JSON object in the journal's restricted dialect —
//! string values never contain `,`, `{`, `}` or `"` — so the supervisor's
//! field-scanning parser works unchanged, and a `done` frame can embed a
//! run record by splicing the exact journal line the coordinator will
//! write.

use super::ServiceError;
use crate::campaign::RunRecord;
use crate::supervisor::{parse_record_line, record_line};
use std::io::{BufRead, Write};

/// Protocol version carried in the handshake; bumped on any frame or
/// message change so a stale worker binary is rejected cleanly instead of
/// misparsing.  v2 added the fault model to `hello`, so a stuck-at
/// coordinator can never silently merge records from a transient worker;
/// v3 dropped what no worker read: the `lease_done` message and
/// `welcome`'s `deadline_ms`.
pub(crate) const PROTO_VERSION: u32 = 3;

/// Upper bound on one frame's payload, header included in spirit: a
/// corrupt length prefix must not make the reader allocate gigabytes.
pub(crate) const MAX_FRAME: usize = 64 * 1024;

/// Longest accepted `#<len>\n` header (`#65536\n` is 7 bytes; leave slack).
const MAX_HEADER: usize = 16;

/// Encodes `payload` (no trailing newline) as one contiguous frame
/// buffer: `#<len>\n<payload>\n`.
pub(crate) fn encode_frame(payload: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + MAX_HEADER);
    buf.extend_from_slice(format!("#{}\n", payload.len() + 1).as_bytes());
    buf.extend_from_slice(payload.as_bytes());
    buf.push(b'\n');
    buf
}

/// Writes `payload` as a single frame with one `write_all` call.
pub(crate) fn write_frame(w: &mut impl Write, payload: &str) -> Result<(), ServiceError> {
    w.write_all(&encode_frame(payload))
        .map_err(|e| ServiceError::Io(format!("write frame: {e}")))
}

/// Reads one frame and returns its payload without the trailing newline.
///
/// EOF before any header byte is a clean [`ServiceError::Closed`]; EOF
/// mid-header or mid-payload is a [`ServiceError::TornFrame`] (the peer
/// died mid-write); a read timeout is [`ServiceError::Stalled`]; any
/// malformed header, oversized length, missing terminator or non-UTF-8
/// payload is a [`ServiceError::Frame`].
pub(crate) fn read_frame(r: &mut impl BufRead) -> Result<String, ServiceError> {
    // Header: `#<len>\n`, read byte-wise so we never consume past it.
    let mut header = Vec::with_capacity(MAX_HEADER);
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) if header.is_empty() => return Err(ServiceError::Closed),
            Ok(0) => return Err(ServiceError::TornFrame),
            Ok(_) => {}
            Err(e) if stalled(&e) => return Err(ServiceError::Stalled),
            Err(e) => return Err(ServiceError::Io(format!("read frame header: {e}"))),
        }
        if byte[0] == b'\n' {
            break;
        }
        header.push(byte[0]);
        if header.len() > MAX_HEADER {
            return Err(ServiceError::Frame("frame header too long".into()));
        }
    }
    if header.first() != Some(&b'#') {
        return Err(ServiceError::Frame(
            "frame header must start with `#`".into(),
        ));
    }
    let len: usize = std::str::from_utf8(&header[1..])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServiceError::Frame("unparseable frame length".into()))?;
    if len == 0 || len > MAX_FRAME {
        return Err(ServiceError::Frame(format!(
            "frame length {len} outside (0, {MAX_FRAME}]"
        )));
    }
    let mut payload = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut payload) {
        return Err(match e.kind() {
            std::io::ErrorKind::UnexpectedEof => ServiceError::TornFrame,
            _ if stalled(&e) => ServiceError::Stalled,
            _ => ServiceError::Io(format!("read frame payload: {e}")),
        });
    }
    if payload.pop() != Some(b'\n') {
        return Err(ServiceError::Frame(
            "frame payload must end with newline".into(),
        ));
    }
    String::from_utf8(payload).map_err(|_| ServiceError::Frame("frame payload is not UTF-8".into()))
}

fn stalled(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One protocol message.  `Hello`/`Welcome`/`Reject` are the handshake
/// (fingerprint checked in **both** directions); `Lease`/`Done` are the
/// work loop; `Ping` is the heartbeat either side may send; `Fin` ends the
/// session.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Msg {
    /// Worker → coordinator: campaign identity claim.  `model` is the
    /// worker's fault-model name (`transient` / `stuck-at-0` /
    /// `stuck-at-1`); the coordinator rejects a mismatch explicitly, before
    /// the opaque fingerprint comparison, so the operator sees *why*.
    Hello {
        proto: u32,
        fingerprint: u64,
        runs: usize,
        model: String,
    },
    /// Coordinator → worker: handshake accepted.
    Welcome { fingerprint: u64 },
    /// Coordinator → worker: handshake refused (mismatched fingerprint or
    /// protocol); the reason is restricted-dialect text.
    Reject { reason: String },
    /// Coordinator → worker: execute exactly these run indices.  An
    /// explicit array (not a range) because resume and the static prune
    /// leave holes in the pending index space.
    Lease { id: u64, runs: Vec<usize> },
    /// Worker → coordinator: one completed run of a lease.  On the wire
    /// this splices the exact journal record line, so the coordinator
    /// merges byte-for-byte what a local campaign would have journaled.
    Done {
        lease: u64,
        run: usize,
        rec: RunRecord,
    },
    /// Heartbeat; carries nothing, resets the peer's stall deadline.
    Ping,
    /// Coordinator → worker: campaign complete, close cleanly.
    Fin,
}

impl Msg {
    /// Renders the message as one JSON object in the journal's restricted
    /// dialect (values free of `,{}"`), parseable by field scanning.
    pub(crate) fn encode(&self) -> String {
        match self {
            Msg::Hello {
                proto,
                fingerprint,
                runs,
                model,
            } => format!(
                "{{\"type\":\"hello\",\"proto\":{proto},\"fingerprint\":\"{fingerprint:016x}\",\"runs\":{runs},\"model\":\"{model}\"}}"
            ),
            Msg::Welcome { fingerprint } => {
                format!("{{\"type\":\"welcome\",\"fingerprint\":\"{fingerprint:016x}\"}}")
            }
            Msg::Reject { reason } => {
                let clean: String = reason
                    .chars()
                    .map(|c| if "\",{}".contains(c) { ' ' } else { c })
                    .collect();
                format!("{{\"type\":\"reject\",\"reason\":\"{clean}\"}}")
            }
            Msg::Lease { id, runs } => {
                let list = runs
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{{\"type\":\"lease\",\"id\":{id},\"runs\":[{list}]}}")
            }
            Msg::Done { lease, run, rec } => {
                // Splice the journal line (`{"run":N,...}`, minus its
                // trailing newline) after the service envelope: field
                // scanning makes the result both a valid `done` message
                // and a valid record line.
                let line = record_line(*run, rec);
                format!(
                    "{{\"type\":\"done\",\"lease\":{lease},{}",
                    line[1..].trim_end()
                )
            }
            Msg::Ping => "{\"type\":\"ping\"}".into(),
            Msg::Fin => "{\"type\":\"fin\"}".into(),
        }
    }

    /// Parses one payload; any shape violation is a clean
    /// [`ServiceError::Protocol`] — the decoder must never panic, which
    /// the seeded torture tests below enforce.
    pub(crate) fn decode(line: &str) -> Result<Msg, ServiceError> {
        let field = |key: &str| -> Result<&str, ServiceError> {
            json_str_field(line, key)
                .ok_or_else(|| ServiceError::Protocol(format!("message lacks `{key}`: {line}")))
        };
        match field("type")? {
            "hello" => Ok(Msg::Hello {
                proto: parse_num(field("proto")?, "proto")?,
                fingerprint: parse_fp(field("fingerprint")?)?,
                runs: parse_num(field("runs")?, "runs")?,
                model: field("model")?.to_string(),
            }),
            "welcome" => Ok(Msg::Welcome {
                fingerprint: parse_fp(field("fingerprint")?)?,
            }),
            "reject" => Ok(Msg::Reject {
                reason: field("reason")?.to_string(),
            }),
            "lease" => Ok(Msg::Lease {
                id: parse_num(field("id")?, "id")?,
                runs: parse_run_array(line)?,
            }),
            "done" => {
                let lease = parse_num(field("lease")?, "lease")?;
                let (run, rec) = parse_record_line(line).ok_or_else(|| {
                    ServiceError::Protocol(format!("done frame embeds no record line: {line}"))
                })?;
                Ok(Msg::Done { lease, run, rec })
            }
            "ping" => Ok(Msg::Ping),
            "fin" => Ok(Msg::Fin),
            other => Err(ServiceError::Protocol(format!(
                "unknown message type `{other}`"
            ))),
        }
    }
}

/// Field scan in the journal's restricted dialect, like the supervisor's
/// `json_field` but tolerant of `[` so a `lease` message's scalar fields
/// parse even with the runs array present.
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}', ']'])?;
    Some(rest[..end].trim_matches('"'))
}

fn parse_num<T: std::str::FromStr>(s: &str, key: &str) -> Result<T, ServiceError> {
    s.parse()
        .map_err(|_| ServiceError::Protocol(format!("unparseable `{key}`: {s}")))
}

fn parse_fp(s: &str) -> Result<u64, ServiceError> {
    u64::from_str_radix(s, 16)
        .map_err(|_| ServiceError::Protocol(format!("unparseable fingerprint: {s}")))
}

fn parse_run_array(line: &str) -> Result<Vec<usize>, ServiceError> {
    let start = line
        .find("\"runs\":[")
        .ok_or_else(|| ServiceError::Protocol(format!("lease lacks runs array: {line}")))?
        + "\"runs\":[".len();
    let rest = &line[start..];
    let end = rest
        .find(']')
        .ok_or_else(|| ServiceError::Protocol(format!("unterminated runs array: {line}")))?;
    let body = &rest[..end];
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|s| parse_num(s.trim(), "runs entry"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::RunDetail;
    use gpufi_metrics::FaultEffect;
    use std::io::BufReader;

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::Hello {
                proto: PROTO_VERSION,
                fingerprint: 0xdead_beef_1234_5678,
                runs: 300,
                model: "stuck-at-1".into(),
            },
            Msg::Welcome {
                fingerprint: 0xdead_beef_1234_5678,
            },
            Msg::Reject {
                reason: "campaign fingerprint mismatch".into(),
            },
            Msg::Lease {
                id: 7,
                runs: vec![0, 2, 3, 11],
            },
            Msg::Lease {
                id: 8,
                runs: vec![],
            },
            Msg::Done {
                lease: 7,
                run: 11,
                rec: RunRecord {
                    effect: FaultEffect::Sdc,
                    cycles: 4242,
                    applied: true,
                    early_exit: false,
                    ckpt_skipped_cycles: 17,
                    detail: RunDetail::None,
                    stratum: Some(3),
                },
            },
            Msg::Ping,
            Msg::Fin,
        ]
    }

    #[test]
    fn every_message_round_trips_through_frame_and_codec() {
        for msg in sample_msgs() {
            let frame = encode_frame(&msg.encode());
            let payload = read_frame(&mut BufReader::new(&frame[..])).unwrap();
            assert_eq!(Msg::decode(&payload).unwrap(), msg, "{payload}");
        }
    }

    #[test]
    fn frames_concatenate_cleanly() {
        let mut buf = Vec::new();
        for msg in sample_msgs() {
            buf.extend_from_slice(&encode_frame(&msg.encode()));
        }
        let mut r = BufReader::new(&buf[..]);
        for msg in sample_msgs() {
            let payload = read_frame(&mut r).unwrap();
            assert_eq!(Msg::decode(&payload).unwrap(), msg);
        }
        assert_eq!(read_frame(&mut r), Err(ServiceError::Closed));
    }

    #[test]
    fn done_frame_is_a_valid_journal_record_line() {
        // The merge path relies on this: a `done` payload parses with the
        // supervisor's record-line parser, so the coordinator journals
        // byte-for-byte what a local campaign would.
        let rec = RunRecord {
            effect: FaultEffect::Crash,
            cycles: 99,
            applied: true,
            early_exit: false,
            ckpt_skipped_cycles: 0,
            detail: RunDetail::SimPanic,
            stratum: None,
        };
        let payload = Msg::Done {
            lease: 3,
            run: 42,
            rec,
        }
        .encode();
        assert_eq!(parse_record_line(&payload), Some((42, rec)));
    }

    #[test]
    fn truncated_frames_are_torn_not_panics() {
        let full = encode_frame(&Msg::Ping.encode());
        // Every strict prefix (including the empty one at index 0 → Closed)
        // must produce a clean error, never a panic or a bogus frame.
        for cut in 0..full.len() {
            let err = read_frame(&mut BufReader::new(&full[..cut])).unwrap_err();
            match err {
                ServiceError::Closed => assert_eq!(cut, 0, "only EOF-at-start is Closed"),
                ServiceError::TornFrame => assert!(cut > 0),
                other => panic!("prefix {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_and_malformed_headers_are_clean_errors() {
        for bad in [
            "#999999999999999999999999\nx\n", // length overflows usize parse
            "#70000\nx\n",                    // over MAX_FRAME
            "#0\n",                           // zero-length
            "#-5\nx\n",                       // negative
            "#abc\nx\n",                      // non-numeric
            "PING\n",                         // no `#`
            "##12\nx\n",                      // double hash
            "#\nx\n",                         // empty length
        ] {
            let err = read_frame(&mut BufReader::new(bad.as_bytes())).unwrap_err();
            assert!(matches!(err, ServiceError::Frame(_)), "{bad:?} -> {err:?}");
        }
        // A header that never terminates must be bounded, not read forever.
        let runaway = vec![b'#'; 1024];
        assert!(matches!(
            read_frame(&mut BufReader::new(&runaway[..])).unwrap_err(),
            ServiceError::Frame(_)
        ));
    }

    #[test]
    fn frame_payload_must_end_with_newline() {
        // A length that points past the real newline makes the last
        // payload byte something else — the end-marker check catches it.
        let err = read_frame(&mut BufReader::new(&b"#5\nab\nxy"[..])).unwrap_err();
        assert!(matches!(err, ServiceError::Frame(_)), "{err:?}");
    }

    #[test]
    fn non_utf8_payload_is_a_clean_error() {
        let mut frame = b"#5\n".to_vec();
        frame.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc, b'\n']);
        let err = read_frame(&mut BufReader::new(&frame[..])).unwrap_err();
        assert!(matches!(err, ServiceError::Frame(_)), "{err:?}");
    }

    /// Deterministic xorshift for the torture tests (no external RNG in
    /// the offline build).
    struct Xs(u64);
    impl Xs {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    #[test]
    fn seeded_corruption_torture_never_panics() {
        // 2048 seeded mutations of valid frames: flip bytes, truncate,
        // splice.  The reader and decoder must return clean errors (or a
        // coincidentally valid frame) — never panic, never allocate huge.
        let corpus: Vec<Vec<u8>> = sample_msgs()
            .iter()
            .map(|m| encode_frame(&m.encode()))
            .collect();
        let mut rng = Xs(0x9e37_79b9_7f4a_7c15);
        for round in 0..2048 {
            let mut frame = corpus[(rng.next() as usize) % corpus.len()].clone();
            match rng.next() % 3 {
                0 => {
                    // Flip 1..4 bytes anywhere.
                    for _ in 0..=(rng.next() % 3) {
                        let i = (rng.next() as usize) % frame.len();
                        frame[i] ^= (rng.next() % 255 + 1) as u8;
                    }
                }
                1 => {
                    let cut = (rng.next() as usize) % frame.len();
                    frame.truncate(cut);
                }
                _ => {
                    // Splice two frames mid-way.
                    let other = &corpus[(rng.next() as usize) % corpus.len()];
                    let a = (rng.next() as usize) % frame.len();
                    let b = (rng.next() as usize) % other.len();
                    frame.truncate(a);
                    frame.extend_from_slice(&other[b..]);
                }
            }
            let mut r = BufReader::new(&frame[..]);
            if let Ok(payload) = read_frame(&mut r) {
                // Frame survived corruption; the decoder must still be
                // panic-free whatever the payload became.
                let _ = Msg::decode(&payload);
            }
            let _ = round;
        }
    }

    #[test]
    fn decoder_rejects_wrong_shapes_cleanly() {
        for bad in [
            "",
            "{}",
            "{\"type\":\"warp-drive\"}",
            "{\"type\":\"hello\"}",
            "{\"type\":\"hello\",\"proto\":abc,\"fingerprint\":\"12\",\"runs\":1}",
            "{\"type\":\"hello\",\"proto\":2,\"fingerprint\":\"12\",\"runs\":1}",
            "{\"type\":\"welcome\",\"fingerprint\":\"zz\"}",
            "{\"type\":\"lease\",\"id\":1}",
            "{\"type\":\"lease\",\"id\":1,\"runs\":[1,,2]}",
            "{\"type\":\"lease\",\"id\":1,\"runs\":[1",
            "{\"type\":\"done\",\"lease\":1}",
            // A v2 message v3 dropped.
            "{\"type\":\"lease_done\",\"id\":7}",
        ] {
            assert!(Msg::decode(bad).is_err(), "{bad:?} should not decode");
        }
    }
}
