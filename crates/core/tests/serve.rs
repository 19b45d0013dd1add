//! Service tests for the pattern query daemon (`cfp_core::serve`):
//! concurrent clients against one generation are bit-identical to a serial
//! client, epoch swaps under load are atomic (every reply is wholly one
//! generation), malformed frames and old-version requests get typed errors
//! instead of panics, and session overlays isolate tenants across reloads
//! and across appends that grow the tid universe.

use cfp_core::net::{read_frame, write_frame, FrameError, FRAME_ERROR, FRAME_REQUEST};
use cfp_core::serve::ServeRequest;
use cfp_core::{
    ball_radius, pattern_distance, spawn_query_server, FusionConfig, Pattern, QueryClient,
    ServeError, ServeOptions, ServeReply, Source,
};
use cfp_itemset::{Itemset, TidSet};
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(20);

fn dataset() -> cfp_itemset::TransactionDb {
    // Diag16 + 8 identical rows of items 17..=28: one colossal block over
    // an exponential diagonal layer — small, fast, and deterministic.
    cfp_datagen::diag_plus(16, 8, 12)
}

fn config() -> FusionConfig {
    FusionConfig::new(16, 8).with_seed(7)
}

fn spawn(opts: ServeOptions) -> SocketAddr {
    let (addr, _handle) = spawn_query_server(dataset(), config(), opts).expect("spawn server");
    addr
}

fn client(addr: SocketAddr) -> QueryClient {
    QueryClient::connect(addr, TIMEOUT).expect("connect")
}

/// The full reply rendered back to one comparable string.
fn render(reply: &ServeReply) -> String {
    format!("epoch={}\n{}", reply.epoch, reply.lines.join("\n"))
}

#[test]
fn concurrent_clients_are_bit_identical_to_a_serial_client() {
    let addr = spawn(ServeOptions::default());
    // Derive a lookup itemset and a similar tid-set from the served top
    // pattern, so the request mix exercises every read verb.
    let mut serial = client(addr);
    let top = serial
        .request("topk", &[("k", "1"), ("tids", "1")])
        .unwrap();
    let line = top.patterns().next().expect("a top pattern").to_string();
    let items = line
        .split(' ')
        .find_map(|t| t.strip_prefix("items="))
        .unwrap()
        .to_string();
    let tids = line
        .split(' ')
        .find_map(|t| t.strip_prefix("tids="))
        .unwrap()
        .to_string();

    let requests: Vec<(&str, Vec<(&str, &str)>)> = vec![
        ("topk", vec![("k", "5")]),
        ("topk", vec![("k", "3"), ("tids", "1")]),
        ("contain", vec![("items", "17,18")]),
        ("lookup", vec![("items", items.as_str())]),
        ("similar", vec![("tids", tids.as_str())]),
        ("stats", vec![]),
    ];
    // The serial reference: one answer per request shape.
    let expected: Vec<String> = requests
        .iter()
        .map(|(verb, fields)| render(&serial.request(verb, fields).unwrap()))
        .collect();
    serial.bye();

    // The stats counters move with traffic; compare the immutable fields
    // only for that verb.
    let stable = |verb: &str, s: &str| -> String {
        if verb != "stats" {
            return s.to_string();
        }
        s.lines()
            .filter(|l| !l.starts_with("connections=") && !l.starts_with("requests="))
            .collect::<Vec<_>>()
            .join("\n")
    };

    // The hammer: 8 clients × 4 passes over every request shape, all
    // expecting the serial client's exact bytes.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                let mut c = client(addr);
                for _ in 0..4 {
                    for ((verb, fields), want) in requests.iter().zip(&expected) {
                        let got = render(&c.request(verb, fields).unwrap());
                        assert_eq!(
                            stable(verb, &got),
                            stable(verb, want),
                            "concurrent {verb} drifted from the serial answer"
                        );
                    }
                }
                c.bye();
            });
        }
    });
}

#[test]
fn epoch_swaps_under_load_are_atomic() {
    let addr = spawn(ServeOptions::default());
    // Readers hammer topk while reloads swap generations; every reply must
    // be wholly one epoch — same epoch ⇒ byte-identical body, never a mix.
    let observations = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut c = client(addr);
                    let mut seen: Vec<(u64, String)> = Vec::new();
                    let mut last_epoch = 0u64;
                    for _ in 0..40 {
                        let r = c.request("topk", &[("k", "8"), ("tids", "1")]).unwrap();
                        assert!(
                            r.epoch >= last_epoch,
                            "epoch went backwards: {} after {last_epoch}",
                            r.epoch
                        );
                        last_epoch = r.epoch;
                        seen.push((r.epoch, r.lines.join("\n")));
                    }
                    c.bye();
                    seen
                })
            })
            .collect();
        let admin = scope.spawn(|| {
            let mut c = client(addr);
            for i in 0..5u64 {
                let r = c.request("reload", &[("wait", "1")]).unwrap();
                assert_eq!(r.field("waited"), Some("1"));
                assert!(r.epoch > i);
            }
            c.bye();
        });
        admin.join().unwrap();
        readers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    let mut by_epoch: HashMap<u64, &String> = HashMap::new();
    let mut epochs_seen = BTreeSet::new();
    for (epoch, body) in &observations {
        epochs_seen.insert(*epoch);
        match by_epoch.get(epoch) {
            None => {
                by_epoch.insert(*epoch, body);
            }
            Some(first) => assert_eq!(
                *first, body,
                "two replies from epoch {epoch} differ — a torn generation"
            ),
        }
    }
    // Same config, same seed: every generation mines the same patterns, so
    // the *bodies* must also agree across epochs (the swap changes the
    // pointer, never the answer).
    let first = observations.first().map(|(_, b)| b).unwrap();
    assert!(
        by_epoch.values().all(|b| *b == first),
        "a reload with an unchanged seed changed the answer"
    );
    assert!(!epochs_seen.is_empty());
}

#[test]
fn malformed_frames_get_typed_errors_not_panics() {
    // Bounded serving: exactly the connections this test makes, so the
    // server returns cleanly and the accept loop is known to have survived
    // every hostile connection.
    let (addr, handle) = spawn_query_server(
        dataset(),
        config(),
        ServeOptions::default()
            .with_max_conns(4)
            .with_io_timeout(Duration::from_secs(5)),
    )
    .expect("spawn server");

    // 1. Raw garbage: not even a frame. The server answers with a typed
    //    error frame (or just closes) — never hangs, never panics.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(TIMEOUT)).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let _ = s.flush();
        match read_frame(&mut &s) {
            Ok((kind, payload)) => {
                assert_eq!(kind, FRAME_ERROR);
                let text = String::from_utf8_lossy(&payload);
                assert!(text.starts_with("exit=3\n"), "untyped error: {text}");
            }
            // The server may also simply close after the error write
            // races our read; hanging is the only failure.
            Err(e) => assert!(
                !matches!(e, FrameError::TimedOut),
                "server hung on garbage: {e}"
            ),
        }
    }

    // 2. A truncated frame: a valid header promising more payload than
    //    ever arrives. Dropping the write half must surface as a typed
    //    close on the server, not a panic (the next connection proves the
    //    server survived).
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let text = ServeRequest::new("topk", &[]).to_text();
        let mut frame = Vec::new();
        write_frame(&mut frame, FRAME_REQUEST, text.as_bytes()).unwrap();
        s.write_all(&frame[..frame.len() - 3]).unwrap();
        let _ = s.flush();
        drop(s);
    }

    // 3. A well-framed but invalid request on a live client: typed server
    //    error, and the connection stays usable for a valid follow-up.
    {
        let mut c = client(addr);
        match c.request("frobnicate", &[]) {
            Err(ServeError::Server { exit, message }) => {
                assert_eq!(exit, 3);
                assert!(message.contains("unknown verb"), "message: {message}");
            }
            other => panic!("expected a typed server error, got {other:?}"),
        }
        match c.request("topk", &[("k", "2"), ("bogus", "1")]) {
            Err(ServeError::Server { exit, .. }) => assert_eq!(exit, 3),
            other => panic!("expected a typed server error, got {other:?}"),
        }
        match c.request("similar", &[("tids", "0,999999")]) {
            Err(ServeError::Server { exit, message }) => {
                assert_eq!(exit, 3);
                assert!(message.contains("universe"), "message: {message}");
            }
            other => panic!("expected a typed server error, got {other:?}"),
        }
        let ok = c.request("topk", &[("k", "2")]).unwrap();
        assert_eq!(ok.field("count"), Some("2"));
        c.bye();
    }

    // 4. One final clean connection exhausts max_conns; the server returns.
    let mut c = client(addr);
    assert!(c.request("stats", &[]).is_ok());
    c.bye();
    handle.join().unwrap().unwrap();
}

#[test]
fn session_overlays_isolate_tenants_and_survive_reloads() {
    let addr = spawn(ServeOptions::default());
    let mut c = client(addr);
    // A pattern no generation mines: a private tenant artifact.
    let put = c
        .request(
            "put",
            &[("session", "alice"), ("items", "2,4"), ("tids", "1,3,5,7")],
        )
        .unwrap();
    assert_eq!(put.field("fresh"), Some("1"));
    assert_eq!(put.field("session_rows"), Some("1"));

    // Alice sees it; the shared view and tenant bob do not.
    let alice = c
        .request("lookup", &[("items", "2,4"), ("session", "alice")])
        .unwrap();
    assert_eq!(alice.field("found"), Some("1"));
    assert_eq!(alice.field("support"), Some("4"));
    let shared = c.request("lookup", &[("items", "2,4")]).unwrap();
    assert_eq!(shared.field("found"), Some("0"));
    let bob = c
        .request("lookup", &[("items", "2,4"), ("session", "bob")])
        .unwrap();
    assert_eq!(bob.field("found"), Some("0"));

    // The overlay row competes in the tenant's own ranking only.
    let shared_topk = c.request("topk", &[("k", "100")]).unwrap();
    let alice_topk = c
        .request("topk", &[("k", "100"), ("session", "alice")])
        .unwrap();
    let total = |r: &ServeReply| r.field("total").unwrap().parse::<usize>().unwrap();
    assert_eq!(total(&alice_topk), total(&shared_topk) + 1);

    // A reload re-forks the overlay from the new generation and re-interns
    // the tenant's patterns: isolation holds across the epoch swap.
    let reloaded = c.request("reload", &[("wait", "1")]).unwrap();
    assert!(reloaded.epoch >= 1);
    let alice = c
        .request("lookup", &[("items", "2,4"), ("session", "alice")])
        .unwrap();
    assert_eq!(alice.epoch, reloaded.epoch);
    assert_eq!(alice.field("found"), Some("1"));
    let shared = c.request("lookup", &[("items", "2,4")]).unwrap();
    assert_eq!(shared.field("found"), Some("0"));
    // Idempotent re-put: the row already exists in alice's overlay.
    let again = c
        .request(
            "put",
            &[("session", "alice"), ("items", "2,4"), ("tids", "1,3,5,7")],
        )
        .unwrap();
    assert_eq!(again.field("fresh"), Some("0"));
    assert_eq!(again.field("session_rows"), Some("1"));
    c.bye();
}

#[test]
fn appends_answer_identically_to_a_cold_daemon_on_the_grown_database() {
    let addr = spawn(ServeOptions::default());
    let mut c = client(addr);

    // Two staged deltas: one touching existing diagonal items, one carrying
    // a never-before-seen label (999). `wait=1` observes each swap.
    let batches = [vec![vec![1, 2, 3], vec![17, 18, 19, 999]], vec![vec![4, 5]]];
    let mut epoch = 0;
    for batch in &batches {
        let txns = batch
            .iter()
            .map(|t| {
                t.iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join(";");
        let r = c
            .request("append", &[("txns", &txns), ("wait", "1")])
            .unwrap();
        assert_eq!(r.field("appended"), Some(batch.len().to_string().as_str()));
        assert_eq!(r.field("waited"), Some("1"));
        assert!(r.epoch > epoch, "append did not advance the epoch");
        epoch = r.epoch;
    }

    // The reference: a cold daemon over the final database.
    let mut grown = dataset();
    grown.append_delta(&cfp_itemset::DbDelta::from_transactions(
        batches.iter().flat_map(|b| b.iter().cloned()).collect(),
    ));
    let (cold_addr, _h) =
        spawn_query_server(grown, config(), ServeOptions::default()).expect("cold daemon");
    let mut cold = client(cold_addr);

    let probes: Vec<(&str, Vec<(&str, &str)>)> = vec![
        ("topk", vec![("k", "200"), ("tids", "1")]),
        ("contain", vec![("items", "17,18"), ("limit", "200")]),
        ("lookup", vec![("items", "17,18,19,20")]),
    ];
    let body = |r: &ServeReply| r.lines.join("\n");
    for (verb, fields) in &probes {
        let warm = c.request(verb, fields).unwrap();
        let ref_cold = cold.request(verb, fields).unwrap();
        assert_eq!(
            body(&warm),
            body(&ref_cold),
            "incremental daemon diverged from a cold daemon on {verb}"
        );
    }

    // A reload now re-mines the *grown* database from scratch — same
    // answers, fresh epoch.
    let reloaded = c.request("reload", &[("wait", "1")]).unwrap();
    assert!(reloaded.epoch > epoch);
    for (verb, fields) in &probes {
        let warm = c.request(verb, fields).unwrap();
        let ref_cold = cold.request(verb, fields).unwrap();
        assert_eq!(
            body(&warm),
            body(&ref_cold),
            "post-reload daemon diverged from a cold daemon on {verb}"
        );
    }

    // Bad txns fields are typed request errors that keep the connection up.
    for bad in ["", "1,2;;3", "1,a"] {
        match c.request("append", &[("txns", bad)]) {
            Err(ServeError::Server { exit, .. }) => assert_eq!(exit, 3, "txns={bad:?}"),
            other => panic!("expected a typed error for txns={bad:?}, got {other:?}"),
        }
    }
    assert!(c.request("stats", &[]).is_ok());
    c.bye();
    cold.bye();
}

#[test]
fn similar_equals_the_engine_own_ball_semantics() {
    let addr = spawn(ServeOptions::default());
    // The reference: mine the same config locally and compute the ball by
    // brute force over the same result set with the library's own distance.
    let db = dataset();
    let result = config()
        .engine(&db)
        .mine(Source::Transactions)
        .expect("local mine");
    let radius = ball_radius(config().tau);
    let query_tids: Vec<usize> = result.patterns[0].tids.iter().collect();
    let q = Pattern::new(
        Itemset::from_items(&[]),
        TidSet::from_tids(db.len(), query_tids.iter().copied()),
    );
    let mut want: Vec<String> = result
        .patterns
        .iter()
        .filter(|p| pattern_distance(p, &q) <= radius)
        .map(|p| {
            let items: Vec<String> = p.items.iter().map(|i| i.to_string()).collect();
            format!("items={}", items.join(","))
        })
        .collect();
    want.sort();

    let mut c = client(addr);
    let tids_field: Vec<String> = query_tids.iter().map(|t| t.to_string()).collect();
    let reply = c
        .request("similar", &[("tids", &tids_field.join(","))])
        .unwrap();
    let mut got: Vec<String> = reply
        .patterns()
        .map(|l| {
            l.split(' ')
                .find(|t| t.starts_with("items="))
                .unwrap()
                .to_string()
        })
        .collect();
    got.sort();
    assert_eq!(got, want, "served ball differs from the engine's own ball");
    assert_eq!(reply.field("count"), Some(want.len().to_string().as_str()));
    c.bye();
}

#[test]
fn sessions_survive_an_append_that_grows_the_tid_universe() {
    let addr = spawn(ServeOptions::default());
    let mut c = client(addr);
    let put = c
        .request(
            "put",
            &[("session", "alice"), ("items", "2,4"), ("tids", "1,3,5,7")],
        )
        .unwrap();
    assert_eq!(put.field("fresh"), Some("1"));

    // 300 appended transactions take the 24-tid universe past the first
    // 256-tid lane, so every tid row of the new generation is wider than
    // the session's own pattern was when it was put.
    let txns = (0..300)
        .map(|i| if i % 2 == 0 { "1,2" } else { "999" })
        .collect::<Vec<_>>()
        .join(";");
    let grown = c
        .request("append", &[("txns", &txns), ("wait", "1")])
        .unwrap();
    assert_eq!(grown.field("appended"), Some("300"));

    // Every request naming the session re-interns its pattern into the
    // new generation; none may panic the handler or poison the session.
    for _ in 0..2 {
        let alice = c
            .request("lookup", &[("items", "2,4"), ("session", "alice")])
            .unwrap();
        assert_eq!(alice.epoch, grown.epoch);
        assert_eq!(alice.field("found"), Some("1"));
        assert_eq!(alice.field("support"), Some("4"));
        let line = alice.patterns().next().expect("the session's pattern");
        assert!(line.ends_with(" tids=1,3,5,7"), "{line}");
    }
    let shared = c.request("topk", &[("k", "1000")]).unwrap();
    let alice = c
        .request("topk", &[("k", "1000"), ("session", "alice")])
        .unwrap();
    let total = |r: &ServeReply| r.field("total").unwrap().parse::<usize>().unwrap();
    let shared_has = c.request("lookup", &[("items", "2,4")]).unwrap();
    let private = usize::from(shared_has.field("found") == Some("0"));
    assert_eq!(total(&alice), total(&shared) + private);
    let again = c
        .request(
            "put",
            &[("session", "alice"), ("items", "2,4"), ("tids", "1,3,5,7")],
        )
        .unwrap();
    assert_eq!(again.field("fresh"), Some("0"));
    c.bye();
}

#[test]
fn an_old_version_request_is_refused_typed_and_the_connection_survives() {
    let addr = spawn(ServeOptions::default());
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    // What a version-3 client sent: the verb on the handshake line.
    write_frame(&mut s, FRAME_REQUEST, b"cfp-serve 3 topk\nk=5\n").unwrap();
    let (kind, payload) = read_frame(&mut &s).unwrap();
    assert_eq!(kind, FRAME_ERROR);
    let text = String::from_utf8_lossy(&payload);
    assert!(text.starts_with("exit=3\n"), "untyped error: {text}");
    assert!(text.contains("protocol version 3 not supported"), "{text}");
    // A refused request is a request-level fault: the connection stays up.
    let text = ServeRequest::new("topk", &[("k", "1")]).to_text();
    write_frame(&mut s, FRAME_REQUEST, text.as_bytes()).unwrap();
    let (kind, _) = read_frame(&mut &s).unwrap();
    assert_eq!(kind, cfp_core::net::FRAME_SLAB_CHUNK);
}
