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
//! The payload is one JSON object, written and parsed by [`crate::json`],
//! with its `type` member first.  A `done` frame is `type` and `lease`
//! followed by the fields the run's journal line is built from
//! (`supervisor::record_fields`), so what a worker reports and what the
//! coordinator journals cannot drift.  Members a message does not define
//! are ignored; a payload that is not well-formed JSON, or lacks a field
//! of its message, is a [`ServiceError::Protocol`].

use super::ServiceError;
use crate::campaign::RunRecord;
use crate::json::{self, Value};
use crate::supervisor::{record_fields, record_from};
use std::io::{BufRead, Write};

/// Protocol version carried in the handshake; bumped on any frame or
/// message change so a stale worker binary is rejected cleanly instead of
/// misparsing.  v2 added the fault model to `hello`; v3 dropped what no
/// worker read (the `lease_done` message and `welcome`'s `deadline_ms`);
/// v4 swapped both handshake messages' fingerprint (and `hello`'s run
/// count and model) for the campaign description; v5 leases the runs
/// static pre-classification resolves too, which a v4 worker would
/// simulate instead of pre-classifying.
pub(crate) const PROTO_VERSION: u32 = 5;

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
/// (campaign descriptions compared in **both** directions); `Lease`/`Done`
/// are the work loop; `Ping` is the heartbeat either side may send; `Fin`
/// ends the session.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Msg {
    /// Worker → coordinator: protocol version and campaign description.
    Hello { proto: u32, campaign: Value },
    /// Coordinator → worker: handshake accepted; its campaign description.
    Welcome { campaign: Value },
    /// Coordinator → worker: handshake refused (another protocol or
    /// campaign), with a human-readable reason.
    Reject { reason: String },
    /// Coordinator → worker: execute exactly these run indices.  An
    /// explicit array (not a range) because resume and the static prune
    /// leave holes in the pending index space.
    Lease { id: u64, runs: Vec<usize> },
    /// Worker → coordinator: one completed run of a lease.  On the wire
    /// the run's journal record fields follow `lease`, so the coordinator
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
    /// Renders the message as one compact JSON object, `type` first.
    pub(crate) fn encode(&self) -> String {
        let (kind, fields) = match self {
            Msg::Hello { proto, campaign } => (
                "hello",
                vec![("proto", (*proto).into()), ("campaign", campaign.clone())],
            ),
            Msg::Welcome { campaign } => ("welcome", vec![("campaign", campaign.clone())]),
            Msg::Reject { reason } => ("reject", vec![("reason", reason.as_str().into())]),
            Msg::Lease { id, runs } => (
                "lease",
                vec![
                    ("id", (*id).into()),
                    ("runs", Value::Arr(runs.iter().map(|&r| r.into()).collect())),
                ],
            ),
            Msg::Done { lease, run, rec } => {
                let mut fields = vec![("lease", (*lease).into())];
                fields.extend(record_fields(*run, rec));
                ("done", fields)
            }
            Msg::Ping => ("ping", Vec::new()),
            Msg::Fin => ("fin", Vec::new()),
        };
        Value::obj([("type", kind.into())].into_iter().chain(fields)).to_string()
    }

    /// Parses one payload; any shape violation is a clean
    /// [`ServiceError::Protocol`] — the decoder must never panic, which
    /// the seeded torture tests below enforce.
    pub(crate) fn decode(payload: &str) -> Result<Msg, ServiceError> {
        let bad = |what: &str| ServiceError::Protocol(format!("{what}: {payload}"));
        let v = json::parse(payload).map_err(|e| bad(&e))?;
        Msg::from_value(&v).ok_or_else(|| bad("unknown or malformed message"))
    }

    fn from_value(v: &Value) -> Option<Msg> {
        let campaign = || v.get("campaign").cloned();
        Some(match v.get("type")?.as_str()? {
            "hello" => Msg::Hello {
                proto: v.get("proto")?.as_num()?,
                campaign: campaign()?,
            },
            "welcome" => Msg::Welcome {
                campaign: campaign()?,
            },
            "reject" => Msg::Reject {
                reason: v.get("reason")?.as_str()?.to_string(),
            },
            "lease" => Msg::Lease {
                id: v.get("id")?.as_num()?,
                runs: v
                    .get("runs")?
                    .as_arr()?
                    .iter()
                    .map(Value::as_num)
                    .collect::<Option<_>>()?,
            },
            "done" => {
                let (run, rec) = record_from(v)?;
                Msg::Done {
                    lease: v.get("lease")?.as_num()?,
                    run,
                    rec,
                }
            }
            "ping" => Msg::Ping,
            "fin" => Msg::Fin,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::RunDetail;
    use crate::supervisor::{parse_record_line, record_line};
    use gpufi_metrics::FaultEffect;
    use std::io::BufReader;

    fn sample_msgs() -> Vec<Msg> {
        let campaign = Value::obj([("seed", 17u8.into()), ("model", "stuck-at-1".into())]);
        vec![
            Msg::Hello {
                proto: PROTO_VERSION,
                campaign: campaign.clone(),
            },
            Msg::Welcome { campaign },
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

    /// The exact payload bytes of every sample message: the wire format is
    /// shared with workers built from other revisions of `PROTO_VERSION` 5.
    #[test]
    fn sample_payload_bytes_are_pinned() {
        let expected = [
            r#"{"type":"hello","proto":5,"campaign":{"seed":17,"model":"stuck-at-1"}}"#,
            r#"{"type":"welcome","campaign":{"seed":17,"model":"stuck-at-1"}}"#,
            r#"{"type":"reject","reason":"campaign fingerprint mismatch"}"#,
            r#"{"type":"lease","id":7,"runs":[0,2,3,11]}"#,
            r#"{"type":"lease","id":8,"runs":[]}"#,
            r#"{"type":"done","lease":7,"run":11,"effect":"SDC","cycles":4242,"applied":true,"early_exit":false,"ckpt":17,"detail":"","stratum":3}"#,
            r#"{"type":"ping"}"#,
            r#"{"type":"fin"}"#,
        ];
        let msgs = sample_msgs();
        assert_eq!(msgs.len(), expected.len());
        for (msg, want) in msgs.iter().zip(expected) {
            assert_eq!(msg.encode(), want);
        }
    }

    /// A reason is free text: quotes, commas and braces reach the worker
    /// as written.
    #[test]
    fn reject_reasons_round_trip_verbatim() {
        let msg = Msg::Reject {
            reason:
                r#"fault model mismatch: coordinator runs "stuck-at-1", worker runs {transient}"#
                    .into(),
        };
        let frame = encode_frame(&msg.encode());
        let payload = read_frame(&mut BufReader::new(&frame[..])).unwrap();
        assert_eq!(Msg::decode(&payload).unwrap(), msg);
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

    /// Flips 1..4 bytes of `bytes`, truncates it, or splices it mid-way
    /// with another `corpus` entry.
    fn mutate(rng: &mut Xs, bytes: &mut Vec<u8>, corpus: &[Vec<u8>]) {
        match rng.next() % 3 {
            0 => {
                for _ in 0..=(rng.next() % 3) {
                    let i = (rng.next() as usize) % bytes.len();
                    bytes[i] ^= (rng.next() % 255 + 1) as u8;
                }
            }
            1 => {
                let cut = (rng.next() as usize) % bytes.len();
                bytes.truncate(cut);
            }
            _ => {
                let other = &corpus[(rng.next() as usize) % corpus.len()];
                let a = (rng.next() as usize) % bytes.len();
                let b = (rng.next() as usize) % other.len();
                bytes.truncate(a);
                bytes.extend_from_slice(&other[b..]);
            }
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
        for _ in 0..2048 {
            let mut frame = corpus[(rng.next() as usize) % corpus.len()].clone();
            mutate(&mut rng, &mut frame, &corpus);
            let mut r = BufReader::new(&frame[..]);
            if let Ok(payload) = read_frame(&mut r) {
                // Frame survived corruption; the decoder must still be
                // panic-free whatever the payload became.
                let _ = Msg::decode(&payload);
            }
        }
    }

    /// Two benchmarks of a real `gpufi analyze --json` report.
    const ANALYZE_JSON: &str = r#"{"benchmarks":[{"bench":"NW","card":"RTX 2060","golden_cycles":65575,"rf_reg_prunable_mass":0.136364,"rf_bit_prunable_mass":0.147727,"kernels":[{"kernel":"nw_diagonal","cycles":65575,"regs":22,"dead_regs":[5,13,14],"dead_bits":104,"bit_fraction":0.147727,"reachable_instrs":24,"mean_known_bits_per_reg":0.0530}]},{"bench":"SP","card":"RTX 2060","golden_cycles":1342,"rf_reg_prunable_mass":0.052632,"rf_bit_prunable_mass":0.062500,"kernels":[{"kernel":"scalar_prod","cycles":1342,"regs":19,"dead_regs":[3],"dead_bits":38,"bit_fraction":0.062500,"reachable_instrs":32,"mean_known_bits_per_reg":0.9457}]}]}"#;

    /// The JSON codec over 4096 seeded mutations of real inputs — every
    /// journal record shape, a journal header, every sample payload and an
    /// `analyze --json` report: each mutant must fail to parse, or parse to
    /// a value whose encoding parses back to the same value; the record
    /// and message decoders must not panic on it either.
    #[test]
    fn json_codec_rejects_or_round_trips_mutated_inputs() {
        let mut corpus: Vec<Vec<u8>> = sample_msgs()
            .iter()
            .map(|m| m.encode().into_bytes())
            .collect();
        corpus.push(br#"{"v":1,"fingerprint":"0123456789abcdef","runs":300}"#.to_vec());
        corpus.push(ANALYZE_JSON.as_bytes().to_vec());
        for (i, effect) in FaultEffect::ALL.into_iter().enumerate() {
            for (j, detail) in RunDetail::ALL.into_iter().enumerate() {
                let rec = RunRecord {
                    effect,
                    cycles: 977 * j as u64,
                    applied: i % 2 == 0,
                    early_exit: j % 2 == 0,
                    ckpt_skipped_cycles: 17 * i as u64,
                    detail,
                    stratum: (j % 3 == 0).then_some(j as u32),
                };
                corpus.push(
                    record_line(i * 100 + j, &rec)
                        .trim_end()
                        .as_bytes()
                        .to_vec(),
                );
            }
        }
        let mut rng = Xs(0x2545_f491_4f6c_dd1d);
        for round in 0..4096 {
            let mut bytes = corpus[(rng.next() as usize) % corpus.len()].clone();
            mutate(&mut rng, &mut bytes, &corpus);
            let text = String::from_utf8_lossy(&bytes);
            let _ = parse_record_line(&text);
            let _ = Msg::decode(&text);
            if let Ok(v) = json::parse(&text) {
                let again = json::parse(&v.to_string());
                assert_eq!(again.as_ref(), Ok(&v), "round {round}: {text}");
            }
        }
    }

    #[test]
    fn decoder_rejects_wrong_shapes_cleanly() {
        let done = sample_msgs()[5].encode();
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
            // Complete record fields inside a malformed object.
            &format!("{},}}", &done[..done.len() - 1]),
            &format!("{done} junk }}"),
            // A v2 message v3 dropped.
            "{\"type\":\"lease_done\",\"id\":7}",
            // v3 handshake frames, which carry no campaign description.
            r#"{"type":"hello","proto":3,"fingerprint":"deadbeef12345678","runs":300,"model":"transient"}"#,
            r#"{"type":"welcome","fingerprint":"deadbeef12345678"}"#,
        ] {
            assert!(Msg::decode(bad).is_err(), "{bad:?} should not decode");
        }
    }
}
